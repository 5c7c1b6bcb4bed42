package core

import (
	"fmt"
	"time"

	"repro/internal/citation"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/policy"
	"repro/internal/storage"
)

// DurableOptions configures the durability subsystem attached to a
// System by EnableDurability or Open. The zero value is usable:
// on-commit fsync, 4 MiB segments, checkpoints only on demand.
type DurableOptions struct {
	// Fsync selects when appended log bytes reach stable storage:
	// durable.FsyncOnCommit (commit and configuration entries; the zero
	// value and default), durable.FsyncAlways (every entry), or
	// durable.FsyncInterval (a background timer).
	Fsync durable.FsyncPolicy
	// SyncInterval is the FsyncInterval timer period (0 = 100 ms).
	SyncInterval time.Duration
	// SegmentBytes rolls log segments at this size (0 = 4 MiB).
	SegmentBytes int64
	// CheckpointEvery writes an automatic checkpoint after every N
	// commits (0 = only explicit Checkpoint calls).
	CheckpointEvery int
	// ReadOnly makes Open recover the state without attaching the log
	// for writing: the resulting System serves reads but rejects
	// journaled mutations, and it leaves the directory untouched — what
	// inspection tools (citegen -open) want while a server owns the dir.
	ReadOnly bool
}

// DurabilityStats is the point-in-time durability gauge set exposed on
// the server's /metrics endpoint.
type DurabilityStats struct {
	// Enabled reports whether a commit log is attached for writing.
	Enabled bool
	// Fsync names the active fsync policy.
	Fsync string
	// Segments counts log segment files, the active one included.
	Segments int
	// BytesSinceCheckpoint counts log bytes appended since the last
	// checkpoint (or since open).
	BytesSinceCheckpoint int64
	// Checkpoints counts checkpoints written by this process.
	Checkpoints int64
	// LastRecovery is how long the last Open recovery took (0 when the
	// system was not recovered from a directory).
	LastRecovery time.Duration
	// RecoveredVersion is the latest committed version rebuilt by Open
	// (0 when the system was not recovered).
	RecoveredVersion fixity.Version
}

// PolicyByName resolves the named combination policies the commands and
// the commit log use: "minsize" (the default, also "" and "default"),
// "maxcoverage" and "all". The boolean reports whether the name is known.
func PolicyByName(name string) (policy.Policy, bool) {
	p := policy.Default()
	switch name {
	case "", "default", "minsize":
		p.AltR = policy.MinSize
	case "maxcoverage":
		p.AltR = policy.MaxCoverage
	case "all":
		p.AltR = policy.AllBranches
	default:
		return p, false
	}
	return p, true
}

// EnableDurability initializes dir as this system's data directory and
// attaches the commit log: the manifest pins the schema, a checkpoint
// captures the system's current state (tuples, views, policy, any
// already-committed versions), and every subsequent write — Insert,
// Delete, Commit, DefineView, SetPolicyNamed — is journaled before it
// applies. The directory must not be initialized yet; reattaching to an
// existing directory is Open's job, and doing it here would silently
// fork the history.
func (s *System) EnableDurability(dir string, opts DurableOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return fmt.Errorf("core: durability already enabled (%s)", s.walDir)
	}
	if opts.ReadOnly {
		return fmt.Errorf("core: cannot enable durability read-only; ReadOnly is an Open option")
	}
	if durable.Initialized(dir) {
		return fmt.Errorf("core: %s is already a data directory; recover from it with Open instead", dir)
	}
	//lint:lockscope one-time enablement: manifest/checkpoint/log creation must see a quiescent head, so it runs under the writer lock
	if err := durable.WriteManifest(dir, s.store.Head().Schema()); err != nil {
		return err
	}
	//lint:lockscope one-time enablement: the checkpoint snapshots the head the lock is freezing
	if err := durable.WriteCheckpoint(dir, s.buildCheckpointLocked(0)); err != nil {
		return err
	}
	return s.attach(dir, 0, opts)
}

// attach opens dir's log to append from sequence number next, so every
// later write journals there. Called with the exclusive system lock held
// (or before the system is shared).
func (s *System) attach(dir string, next uint64, opts DurableOptions) error {
	wal, err := durable.OpenLog(dir, next, durable.LogOptions{
		Fsync:        opts.Fsync,
		SyncInterval: opts.SyncInterval,
		SegmentBytes: opts.SegmentBytes,
	})
	if err != nil {
		return err
	}
	s.wal, s.walDir, s.walOpts = wal, dir, opts
	s.walGen = s.store.Head().MutationGen()
	return nil
}

// Open recovers a System from a durable data directory: the manifest
// yields the schema, and the newest checkpoint's entries and then the
// log tail's apply one by one through applyEntry, the function every
// live write applies through — rebuilding the exact fixity version
// history (same version numbers, timestamps, messages and digests;
// every rebuilt snapshot is verified against the digest its commit entry
// recorded). A torn log tail recovers the longest clean prefix; checksum
// or sequencing damage anywhere else, or an entry that does not apply,
// reports an error wrapping durable.ErrCorrupt rather than serving a
// mangled state.
//
// Unless opts.ReadOnly is set, the recovered system continues journaling
// to the same directory.
func Open(dir string, opts DurableOptions) (*System, error) {
	start := time.Now()
	sch, err := durable.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	sys := NewSystem(sch)

	// A checkpoint and the log tail hold only entries the live system
	// applied, so an entry that does not apply, or a commit whose rebuilt
	// snapshot digests otherwise than the live one did, is damage,
	// whichever source it comes from.
	apply := func(src string, i uint64, e durable.Entry) error {
		_, err := sys.applyEntry(e)
		if err == nil && e.Type == durable.EntryCommit {
			db, _ := sys.store.At(fixity.Version(e.Commit.Version)) // applyEntry just committed it
			if got := fixity.DatabaseDigest(db); got != e.Commit.Digest {
				err = fmt.Errorf("version %d digest mismatch: rebuilt %s, committed %s",
					e.Commit.Version, got, e.Commit.Digest)
			}
		}
		if err != nil {
			return fmt.Errorf("%w: %s entry %d (%s): %w", durable.ErrCorrupt, src, i, e.Type, err)
		}
		return nil
	}
	watermark := uint64(0)
	ckpt, err := durable.LoadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		watermark = ckpt.Watermark
		for i, e := range ckpt.Entries {
			if err := apply("checkpoint", uint64(i), e); err != nil {
				return nil, err
			}
		}
	}
	next, err := durable.Replay(dir, watermark, func(lsn uint64, e durable.Entry) error {
		return apply("log", lsn, e)
	})
	if err != nil {
		return nil, err
	}

	// Recovery rebuilds data only; indexes and columnar blocks reappear
	// on demand as the planner's EnsureIndex/ColumnarBlock calls touch the
	// columns real queries probe, keeping restart cost proportional to the
	// log, not to schema width.
	sys.recoveryDur = time.Since(start)
	sys.recoveredVer = sys.store.Latest()
	sys.readOnly = opts.ReadOnly
	if !opts.ReadOnly {
		if err := sys.attach(dir, next, opts); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// write is the one way the system's state changes. Under the exclusive
// system lock it completes and validates e (prepare), journals it when a
// log is attached — synced if sync is set, as the fsync policy says — and
// applies it with applyEntry, the function Open replays the journal
// through, so a recovered system holds exactly what the live one held. A
// failed append applies nothing. It returns applyEntry's batch count and
// the epoch observed with the change.
func (s *System) write(e *durable.Entry, sync bool) (int, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return 0, s.epoch, fmt.Errorf("core: system was opened read-only")
	}
	if err := s.prepare(e); err != nil {
		return 0, s.epoch, err
	}
	if s.wal != nil {
		//lint:lockscope journaled mutation: the journal entry and its apply must commit atomically under the writer lock
		if _, err := s.wal.Append(*e, sync); err != nil {
			return 0, s.epoch, fmt.Errorf("core: journal: %w", err)
		}
	}
	n, err := s.applyEntry(*e)
	if err != nil {
		return n, s.epoch, err // unreachable: prepare validated e
	}
	// Re-read rather than increment: a no-op batch (all duplicates) does
	// not advance the relation's generation.
	s.walGen = s.store.Head().MutationGen()
	return n, s.epoch, nil
}

// prepare validates e against the current state, with the checks and
// messages of the method that made it, and completes a commit entry:
// version, timestamp (the store clock, in UTC), tuple count, and, when
// the entry is journaled, the digest of the snapshot it seals.
func (s *System) prepare(e *durable.Entry) error {
	head := s.store.Head()
	switch e.Type {
	case durable.EntryInsert, durable.EntryDelete:
		r := head.Relation(e.Relation)
		if r == nil {
			return fmt.Errorf("core: unknown relation %s", e.Relation)
		}
		for _, t := range e.Tuples {
			if err := r.Check(t); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
	case durable.EntryCommit:
		var snap *storage.Database
		if s.wal != nil {
			// Refuse to seal contents the log cannot reproduce: a direct
			// Database() mutation bypassed the journal, and committing its
			// digest would make the whole directory unrecoverable at the
			// next boot (replay rebuilds different contents and fails the
			// digest check). Failing here is loud and immediate instead.
			if g := head.MutationGen(); g != s.walGen {
				return fmt.Errorf(
					"core: head was mutated outside the journaled API (direct Database() writes?); durable systems must mutate through System.Insert/Delete")
			}
			// Digest the snapshot the commit stores, not the head: it
			// holds the frozen relations the store appends as this
			// version, which keep their canonical order, so no later
			// digest of this or another version sharing them sorts them
			// again.
			snap = head.Snapshot()
		}
		e.Commit = commitMeta(s.store.Next(e.Commit.Message), snap)
	case durable.EntryDefineView:
		v, err := entryView(*e)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		return s.reg.Check(v)
	}
	return nil
}

// applyEntry applies one entry: a live one once write has journaled it,
// or a recovered one, from a checkpoint or the log tail. It returns an
// insert's or delete's batch count (tuples added or removed). The caller
// holds the exclusive system lock, or the system is not shared yet.
func (s *System) applyEntry(e durable.Entry) (n int, err error) {
	switch e.Type {
	case durable.EntryInsert, durable.EntryDelete:
		r := s.store.Head().Relation(e.Relation)
		if r == nil {
			return 0, fmt.Errorf("unknown relation %s", e.Relation)
		}
		batch := r.InsertBatch
		if e.Type == durable.EntryDelete {
			batch = r.DeleteBatch
		}
		if n, err = batch(e.Tuples); err != nil {
			return n, err
		}
	case durable.EntryCommit:
		if err := s.store.Commit(versionInfo(e.Commit)); err != nil {
			return 0, err
		}
	case durable.EntryDefineView:
		v, err := entryView(e)
		if err != nil {
			return 0, err
		}
		if err := s.reg.Add(v); err != nil {
			return 0, err
		}
		// A new view changes which rewritings exist, which the rewriting
		// memo keys by registry generation; no cached view, atom or plan
		// depends on another view's definition, so none turns over.
		s.views = append(s.views, e)
		s.cfg++
	case durable.EntrySetPolicy:
		p, ok := PolicyByName(e.Policy)
		if !ok {
			return 0, fmt.Errorf("unknown policy %q", e.Policy)
		}
		// No generator cache entry depends on the policy: every cite
		// applies it to the rewritings it evaluates and the atoms it
		// resolves.
		s.gen.SetPolicy(p)
		s.polName = e.Policy
		s.cfg++
	default:
		return 0, fmt.Errorf("unknown entry type %d", e.Type)
	}
	s.epoch++
	return n, nil
}

// versionInfo is the version metadata a commit entry records.
func versionInfo(m durable.CommitMeta) fixity.VersionInfo {
	return fixity.VersionInfo{
		Version:   fixity.Version(m.Version),
		Timestamp: time.Unix(0, m.Timestamp).UTC(),
		Message:   m.Message,
		Tuples:    int(m.Tuples),
	}
}

// commitMeta is the commit entry's record of a version: its metadata
// and, for an entry that is journaled, the digest of db, its database.
func commitMeta(info fixity.VersionInfo, db *storage.Database) durable.CommitMeta {
	m := durable.CommitMeta{
		Version:   int64(info.Version),
		Timestamp: info.Timestamp.UnixNano(),
		Message:   info.Message,
		Tuples:    int64(info.Tuples),
	}
	if db != nil {
		m.Digest = fixity.DatabaseDigest(db)
	}
	return m
}

// entryView builds the view a define-view entry defines, parsing its
// view and citation queries from the text the caller wrote.
func entryView(e durable.Entry) (*citation.View, error) {
	vq, err := cq.Parse(e.ViewSrc)
	if err != nil {
		return nil, fmt.Errorf("view query: %w", err)
	}
	v := &citation.View{Query: vq, Static: staticRecord(e.Static)}
	for _, c := range e.Cites {
		cqy, err := cq.Parse(c.Query)
		if err != nil {
			return nil, fmt.Errorf("citation query: %w", err)
		}
		v.Citations = append(v.Citations, &citation.CitationQuery{Query: cqy, Fields: c.Fields})
	}
	return v, nil
}

// staticPairs renders a record as ordered field/value pairs (canonical
// field order, values in insertion order) — the serializable form of the
// unordered Record map.
func staticPairs(rec format.Record) [][2]string {
	var out [][2]string
	for _, f := range rec.Fields() {
		for _, v := range rec[f] {
			out = append(out, [2]string{f, v})
		}
	}
	return out
}

// staticRecord rebuilds a record from its ordered pairs.
func staticRecord(pairs [][2]string) format.Record {
	if len(pairs) == 0 {
		return nil
	}
	rec := format.Record{}
	for _, kv := range pairs {
		rec.Add(kv[0], kv[1])
	}
	return rec
}

// buildCheckpointLocked captures the full logical state at the given log
// watermark as the entries that rebuild it from an empty database: the
// policy, the define-view entries the system applied, each committed
// version as the batches from its predecessor plus its commit, and the
// batches from the latest version to the head. Called with the exclusive system lock held (or before the
// system is shared).
func (s *System) buildCheckpointLocked(watermark uint64) *durable.Checkpoint {
	c := &durable.Checkpoint{Watermark: watermark}
	c.Entries = append(c.Entries, durable.Entry{Type: durable.EntrySetPolicy, Policy: s.polName})
	c.Entries = append(c.Entries, s.views...)
	var prev *storage.Database
	for v := fixity.Version(1); v <= s.store.Latest(); v++ {
		db, err := s.store.At(v)
		if err != nil {
			panic(fmt.Sprintf("core: checkpoint: %v", err)) // unreachable under the exclusive lock
		}
		info, err := s.store.Info(v)
		if err != nil {
			panic(fmt.Sprintf("core: checkpoint: %v", err))
		}
		c.Entries = durable.AppendDiff(c.Entries, prev, db)
		c.Entries = append(c.Entries, durable.Entry{Type: durable.EntryCommit, Commit: commitMeta(info, db)})
		prev = db
	}
	c.Entries = durable.AppendDiff(c.Entries, prev, s.store.Head())
	return c
}

// Checkpoint durably serializes the system's full state and truncates
// the commit log: every segment before the checkpoint is deleted, so
// recovery cost and disk usage stay proportional to the churn since the
// last checkpoint, not the lifetime of the database. It requires an
// attached log (EnableDurability or a writable Open).
func (s *System) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// checkpointEvery counts a commit that landed and, on a system
// configured with CheckpointEvery, writes a checkpoint every that many.
func (s *System) checkpointEvery() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil || s.walOpts.CheckpointEvery <= 0 {
		return nil
	}
	if s.commitsSinceCkpt++; s.commitsSinceCkpt < s.walOpts.CheckpointEvery {
		return nil
	}
	return s.checkpointLocked()
}

func (s *System) checkpointLocked() error {
	if s.wal == nil {
		return fmt.Errorf("core: durability not enabled")
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	ckpt := s.buildCheckpointLocked(s.wal.Next())
	if err := durable.WriteCheckpoint(s.walDir, ckpt); err != nil {
		return err
	}
	if err := s.wal.Checkpointed(ckpt.Watermark); err != nil {
		return err
	}
	s.commitsSinceCkpt = 0
	s.ckptCount++
	return nil
}

// CloseDurability syncs and detaches the commit log. The system remains
// usable in memory; further mutations are simply no longer journaled.
// Call Checkpoint first for a fast next recovery.
func (s *System) CloseDurability() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	//lint:lockscope detach point: closing and nil-ing the journal must be atomic or a racing mutation appends to a closed log
	err := s.wal.Close()
	s.wal = nil
	return err
}

// Durability reports the durability gauges. ok is false when the system
// neither journals nor was recovered from a directory.
func (s *System) Durability() (stats DurabilityStats, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stats.LastRecovery = s.recoveryDur
	stats.RecoveredVersion = s.recoveredVer
	stats.Checkpoints = s.ckptCount
	if s.wal != nil {
		ls := s.wal.Stats()
		stats.Enabled = true
		stats.Fsync = ls.Fsync.String()
		stats.Segments = ls.Segments
		stats.BytesSinceCheckpoint = ls.BytesSinceCheckpoint
	}
	return stats, stats.Enabled || s.recoveredVer > 0 || s.recoveryDur > 0
}

// Insert journals and applies a batch of tuples to the named head
// relation, returning how many were actually added (duplicates are
// no-ops). The batch is validated against the schema first, the log
// entry is appended (and synced per the fsync policy) before storage is
// touched, and the system epoch advances; the next head cite reads a
// snapshot holding the batch. On a system without durability the batch
// applies directly.
func (s *System) Insert(relation string, tuples []storage.Tuple) (int, error) {
	n, _, err := s.write(&durable.Entry{Type: durable.EntryInsert, Relation: relation, Tuples: tuples}, false)
	return n, err
}

// Delete journals and applies a batch deletion from the named head
// relation, returning how many tuples were present (and removed). See
// Insert for the journaling contract.
func (s *System) Delete(relation string, tuples []storage.Tuple) (int, error) {
	n, _, err := s.write(&durable.Entry{Type: durable.EntryDelete, Relation: relation, Tuples: tuples}, false)
	return n, err
}

// SetPolicyNamed replaces the *default* combination policy — the one
// used by calls that carry no WithPolicy option, which always takes
// precedence — with one of the named policies (PolicyByName), and
// journals the change, so a recovered system wakes up with the same
// default policy. It bumps both Version() and ConfigVersion(): changing
// the default can change the outcome of every subsequent default-policy
// citation, even of an already committed version.
func (s *System) SetPolicyNamed(name string) error {
	if _, ok := PolicyByName(name); !ok {
		return fmt.Errorf("core: unknown policy %q (want minsize, maxcoverage or all)", name)
	}
	_, _, err := s.write(&durable.Entry{Type: durable.EntrySetPolicy, Policy: name}, true)
	return err
}

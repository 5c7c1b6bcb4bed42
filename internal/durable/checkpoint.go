package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/storage"
)

// checkpointMagic begins every checkpoint file.
var checkpointMagic = []byte("DCCKPT2\n")

// Checkpoint is the full logical state of a citation-enabled database at
// a log watermark, as the log entries that rebuild it from an empty
// database: every log entry with sequence number below Watermark is
// reflected in it, so recovery applies the checkpoint's entries and then
// replays only the log tail, both through one path. The entries are a
// set-policy, one define-view per view, for each committed version the
// delete and insert batches from its predecessor followed by its commit,
// and the batches from the latest version to the head.
type Checkpoint struct {
	Watermark uint64
	Entries   []Entry
}

// AppendDiff appends to dst the delete and insert batches that turn old
// into new, relation by relation in new's schema order, and returns the
// extended slice. old may be nil, meaning the empty database; its
// relations are frozen. A relation both databases hold as the same frozen
// object is skipped unread: committed versions share every relation they
// did not change. Every other one's batches are Relation.Diff's, so
// replaying them rebuilds new's row order too; along a history that only
// appended they are the appended rows, found with no membership test.
// Tuples compare by value, never by a rendering.
func AppendDiff(dst []Entry, old, new *storage.Database) []Entry {
	for _, name := range new.Schema().Names() {
		nr := new.Relation(name)
		var or *storage.Relation
		if old != nil {
			or = old.Relation(name)
		}
		if or == nr {
			continue
		}
		del, ins := nr.Diff(or)
		if del != nil {
			dst = append(dst, Entry{Type: EntryDelete, Relation: name, Tuples: del})
		}
		if ins != nil {
			dst = append(dst, Entry{Type: EntryInsert, Relation: name, Tuples: ins})
		}
	}
	return dst
}

// EncodeCheckpoint renders a checkpoint file: magic, then a payload of
// the watermark, an entry count and the entries, then a CRC32C over the
// payload.
func EncodeCheckpoint(c *Checkpoint) []byte {
	b := append([]byte(nil), checkpointMagic...)
	b = appendUvarint(b, c.Watermark)
	b = appendUvarint(b, uint64(len(c.Entries)))
	for _, e := range c.Entries {
		b = appendEntry(b, e)
	}
	sum := crc32.Checksum(b[len(checkpointMagic):], crcTable)
	return binary.LittleEndian.AppendUint32(b, sum)
}

// DecodeCheckpoint parses a checkpoint file, validating magic and
// checksum. Malformed input of any shape reports an error satisfying
// errors.Is(err, ErrCorrupt) and never panics.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(checkpointMagic)+4 || string(data[:len(checkpointMagic)]) != string(checkpointMagic) {
		return nil, fmt.Errorf("%w: not a checkpoint file", ErrCorrupt)
	}
	payload := data[len(checkpointMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(payload, crcTable) != want {
		return nil, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	d := &decoder{b: payload}
	c := &Checkpoint{Watermark: d.uvarint()}
	n := d.count(2) // type byte + at least one field byte
	for i := 0; i < n && d.err == nil; i++ {
		c.Entries = append(c.Entries, d.entry())
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrCorrupt, len(payload)-d.off)
	}
	return c, nil
}

// WriteCheckpoint durably writes a checkpoint file named by its
// watermark: the encoding goes to a temporary file which is fsynced and
// renamed into place, so a crash mid-write never leaves a half
// checkpoint under the final name.
func WriteCheckpoint(dir string, c *Checkpoint) error {
	data := EncodeCheckpoint(c)
	final := filepath.Join(dir, fmt.Sprintf("%s%016d%s", ckptPrefix, c.Watermark, ckptSuffix))
	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return syncDir(dir)
}

// LoadCheckpoint reads the newest valid checkpoint in dir, or nil when
// the directory has none. A damaged newest checkpoint falls back to the
// next older one (the writer keeps the predecessor until the successor is
// durable); if checkpoints exist but none decodes, that is corruption.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	files, err := listSeqFiles(dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return nil, err
	}
	var firstErr error
	for i := len(files) - 1; i >= 0; i-- {
		data, err := os.ReadFile(files[i].path)
		if err != nil {
			return nil, err
		}
		c, err := DecodeCheckpoint(data)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", filepath.Base(files[i].path), err)
			}
			continue
		}
		return c, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, nil
}

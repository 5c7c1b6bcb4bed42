package durable

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// BenchmarkLogAppend appends one 10-tuple Family insert entry per op and,
// after every third, a synced commit entry, as citeload mixed ingests
// three times per commit, under each fsync policy. Every append must
// advance Next by one, and a replay of the log must read every entry.
func BenchmarkLogAppend(b *testing.B) {
	tuples := make([]storage.Tuple, 10)
	for i := range tuples {
		tuples[i] = storage.Tuple{value.Int(int64(1000 + i)), value.String(fmt.Sprintf("family-%d", 1000+i)), value.String("a receptor family")}
	}
	insert := Entry{Type: EntryInsert, Relation: "Family", Tuples: tuples}
	commit := Entry{Type: EntryCommit, Commit: CommitMeta{Message: "ingest", Digest: strings.Repeat("5e", 32)}}
	for _, mode := range []FsyncPolicy{FsyncAlways, FsyncOnCommit, FsyncInterval} {
		b.Run(mode.String(), func(b *testing.B) {
			dir := b.TempDir()
			l, err := OpenLog(dir, 0, LogOptions{Fsync: mode})
			if err != nil {
				b.Fatal(err)
			}
			var n uint64
			appendOne := func(e Entry, sync bool) {
				if _, err := l.Append(e, sync); err != nil {
					b.Fatal(err)
				}
				if n++; l.Next() != n {
					b.Fatalf("after %d appends Next is %d", n, l.Next())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				appendOne(insert, false)
				if i%3 == 2 {
					commit.Commit.Version, commit.Commit.Tuples = int64(i/3+2), int64(10*(i+1))
					appendOne(commit, true)
				}
			}
			b.StopTimer()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			read := uint64(0)
			next, err := Replay(dir, 0, func(uint64, Entry) error { read++; return nil })
			if err != nil || next != n || read != n {
				b.Fatalf("replay read %d entries up to %d (err %v), want %d", read, next, err, n)
			}
		})
	}
}

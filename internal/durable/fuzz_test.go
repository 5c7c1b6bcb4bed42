package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLogReplay feeds arbitrary bytes to the log reader as a segment
// file. The reader's contract is total: any input either replays some
// prefix of entries or reports an error — it never panics and never
// hands the callback an entry that did not decode cleanly.
func FuzzLogReplay(f *testing.F) {
	// Seed with a real log so the fuzzer starts from valid framing.
	seedDir := f.TempDir()
	l, err := OpenLog(seedDir, 0, LogOptions{})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if _, err := l.Append(randomEntry(rng), false); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSeqFiles(seedDir, segPrefix, segSuffix)
	if err != nil || len(segs) != 1 {
		f.Fatalf("seed log: %d segments (err %v)", len(segs), err)
	}
	seed, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Must not panic; errors and partial replays are both fine.
		_, _ = Replay(dir, 0, func(_ uint64, e Entry) error {
			// Whatever reaches the callback must re-encode: it passed the
			// checksum and decoder, so it is a structurally whole entry.
			_ = EncodeEntry(e)
			return nil
		})
		// The raw entry decoder shares the same totality contract.
		if e, err := DecodeEntry(data); err == nil {
			_ = EncodeEntry(e)
		}
	})
}

// FuzzCheckpoint feeds arbitrary bytes to the checkpoint decoder twice:
// as a whole file, and as a payload framed with the magic and a valid
// checksum, so mutations reach the entry decoder behind the checksum.
// The decoder never panics and refuses only with ErrCorrupt, and
// whatever it accepts re-encodes to a checkpoint that decodes equal.
func FuzzCheckpoint(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	c := &Checkpoint{Watermark: 42}
	for typ := EntryInsert; typ <= EntrySetPolicy; typ++ {
		c.Entries = append(c.Entries, randomEntryOf(rng, typ))
	}
	file := EncodeCheckpoint(c)
	f.Add(file)
	f.Add(file[len(checkpointMagic) : len(file)-4])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		framed := append(append([]byte(nil), checkpointMagic...), data...)
		framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(data, crcTable))
		for _, in := range [][]byte{data, framed} {
			c, err := DecodeCheckpoint(in)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			enc := EncodeCheckpoint(c)
			again, err := DecodeCheckpoint(enc)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			// Equal means the same canonical encoding: reflect.DeepEqual
			// calls a NaN value unequal to itself.
			if !bytes.Equal(EncodeCheckpoint(again), enc) {
				t.Fatal("re-encoded checkpoint decodes to a different one")
			}
		}
	})
}

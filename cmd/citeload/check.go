package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/fixity"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
)

// citeReply is the part of a /cite reply the correctness gate reads,
// each field as the server encoded it.
type citeReply struct {
	Result struct {
		Record json.RawMessage `json:"record"`
		Text   json.RawMessage `json:"text"`
		Pin    json.RawMessage `json:"pin"`
		Reads  json.RawMessage `json:"reads"`
	} `json:"result"`
}

// readReply decodes a cite reply and its pin; ok is false when either
// is malformed or the pin is missing.
func readReply(body []byte) (reply citeReply, pin server.Pin, ok bool) {
	ok = json.Unmarshal(body, &reply) == nil && len(reply.Result.Pin) > 0 &&
		json.Unmarshal(reply.Result.Pin, &pin) == nil
	return reply, pin, ok
}

// checkReference compares every sampled cite reply, field by field and
// byte for byte, with the citation a fresh reference system built the
// same way gives when it cites the pinned version sequentially. It
// returns the number of mismatching replies.
func checkReference(w workload, st stream, out *outcome) (int, error) {
	ref, err := buildSystem(w)
	if err != nil {
		return 0, fmt.Errorf("reference system: %w", err)
	}
	mismatches := 0
	for _, i := range st.Sample {
		if out.status[i] != http.StatusOK {
			continue // a failed op is counted as failed, not checked
		}
		got, pin, ok := readReply(out.body[i])
		if !ok {
			mismatches++
			continue
		}
		q := st.Ops[i].Query
		c, err := ref.CiteContext(context.Background(), q,
			core.AtVersion(fixity.Version(pin.Version)), core.WithParallelism(1))
		if err != nil {
			return 0, fmt.Errorf("reference cite of %q: %w", q, err)
		}
		want := server.NewCiteResult(q, c)
		if !sameJSON(got.Result.Record, want.Record) || !sameJSON(got.Result.Text, want.Text) ||
			!sameJSON(got.Result.Pin, want.Pin) || !sameJSON(got.Result.Reads, want.Reads) {
			mismatches++
		}
	}
	return mismatches, nil
}

// sameJSON reports whether the encoded field equals v's encoding.
func sameJSON(raw json.RawMessage, v any) bool {
	var compact bytes.Buffer
	if json.Compact(&compact, raw) != nil {
		return false
	}
	enc, err := json.Marshal(v)
	return err == nil && bytes.Equal(compact.Bytes(), enc)
}

// recoveryOpens is how many read-only recoveries recovery_s takes the
// median of.
const recoveryOpens = 5

// checkDurable recovers the mixed workload's closed data directory
// read-only, recoveryOpens times, and checks the recovered state: every
// sampled pin re-executes to its digest, every acknowledged commit
// exists with its message, and every acknowledged ingested tuple is in
// the head. It returns the mismatch count and the recovery times.
func checkDurable(dir string, st stream, out *outcome) (int, []float64, error) {
	var rec *core.System
	var took []float64
	for range recoveryOpens {
		start := time.Now()
		sys, err := core.Open(dir, core.DurableOptions{ReadOnly: true})
		if err != nil {
			return 0, nil, fmt.Errorf("recovery: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
		rec = sys
	}
	mismatches := 0
	for _, i := range st.Sample {
		if out.status[i] != http.StatusOK {
			continue
		}
		_, pin, ok := readReply(out.body[i])
		if !ok {
			mismatches++
			continue
		}
		ok, err := rec.Store().Verify(fixity.PinnedCitation{QueryText: pin.Query, Version: fixity.Version(pin.Version), Digest: pin.SHA256})
		if err != nil || !ok {
			mismatches++
		}
	}
	for i, o := range st.Ops {
		if out.status[i] != http.StatusOK {
			continue
		}
		switch o.Kind {
		case opCommit:
			var ack struct {
				Version int    `json:"version"`
				Message string `json:"message"`
			}
			var sent struct {
				Message string `json:"message"`
			}
			if json.Unmarshal(out.body[i], &ack) != nil || json.Unmarshal(o.Body, &sent) != nil {
				mismatches++
				continue
			}
			info, err := rec.Store().Info(fixity.Version(ack.Version))
			if err != nil || info.Message != sent.Message {
				mismatches++
			}
		case opIngest:
			r := rec.Database().Relation(o.Relation)
			for _, t := range o.Tuples {
				if r == nil || !r.Contains(tuple(t)) {
					mismatches++
				}
			}
		}
	}
	return mismatches, took, nil
}

// tuple converts an ingested tuple as sent (ints and strings) to storage.
func tuple(vals []any) storage.Tuple {
	t := make(storage.Tuple, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case int:
			t[i] = value.Int(int64(v))
		case string:
			t[i] = value.String(v)
		}
	}
	return t
}

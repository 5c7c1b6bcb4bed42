package main

import (
	"net/http"
	"time"
)

// Series names on the server's /metrics endpoint.
const (
	citeCount      = `citeserved_request_duration_seconds_count{endpoint="cite"}`
	citeSum        = `citeserved_request_duration_seconds_sum{endpoint="cite"}`
	admissionCount = `citeserved_admission_wait_seconds_count`
	admissionSum   = `citeserved_admission_wait_seconds_sum`
	cacheHits      = `citeserved_cache_hits_total`
	cacheMisses    = `citeserved_cache_misses_total`
	cacheCoalesced = `citeserved_cache_coalesced_total`
	cacheEvictions = `citeserved_cache_evictions_total`
	columnarBlocks = `citeserved_columnar_blocks_total`
	columnarDict   = `citeserved_columnar_dict_bytes_total`
	columnarCode   = `citeserved_columnar_code_bytes_total`
	walBytes       = `citeserved_wal_bytes_since_checkpoint`
	walSegments    = `citeserved_wal_segments`
)

// generatorCaches are the engine caches whose delta-invalidation
// counters /metrics exposes.
var generatorCaches = []string{"plan", "view", "atom", "branch"}

// layerMetrics derives the per-layer metrics of the timed pass from the
// /metrics deltas and the harness's own counts.
func layerMetrics(m map[string]metric, st stream, out *outcome, ws []window, before, after exposition, heapSetup uint64) {
	// A series missing from a scrape reads as zero.
	d := func(series string) float64 { return after[series] - before[series] }

	hits, misses, coalesced := d(cacheHits), d(cacheMisses), d(cacheCoalesced)
	lookups := hits + misses + coalesced
	m["server.result_cache_hit_ratio"] = metric{ratio(hits, lookups), "ratio", 0}
	m["server.coalesced_ratio"] = metric{ratio(coalesced, lookups), "ratio", 0}
	m["server.capacity_evictions"] = metric{d(cacheEvictions), "count", 0}
	m["server.admission_wait_us"] = metric{ratio(d(admissionSum), d(admissionCount)) * 1e6, "us", int(d(admissionCount))}
	serverUS := ratio(d(citeSum), d(citeCount)) * 1e6
	m["server.request_us"] = metric{serverUS, "us", int(d(citeCount))}
	var clientNS float64
	var cites, commits, ingested int
	for i, o := range st.Ops {
		if out.status[i] != http.StatusOK {
			continue
		}
		switch o.Kind {
		case opCite:
			clientNS += float64(out.lat[i].Nanoseconds())
			cites++
		case opCommit:
			commits++
		case opIngest:
			ingested += len(o.Tuples)
		}
	}
	m["server.client_overhead_us"] = metric{ratio(clientNS, float64(cites))/1e3 - serverUS, "us", cites}

	var kept, evicted float64
	for _, c := range generatorCaches {
		kept += d("citeserved_" + c + "_cache_kept_total")
		evicted += d("citeserved_" + c + "_cache_evicted_total")
	}
	m["citation.kept_per_commit"] = metric{ratio(kept, float64(commits)), "count", 0}
	m["citation.evicted_per_commit"] = metric{ratio(evicted, float64(commits)), "count", 0}

	m["storage.columnar_blocks_built"] = metric{d(columnarBlocks), "count", 0}
	m["storage.columnar_mb_built"] = metric{(d(columnarDict) + d(columnarCode)) / 1e6, "MB", 0}

	m["durable.wal_bytes_per_tuple"] = metric{ratio(d(walBytes), float64(ingested)), "B", 0}
	m["durable.wal_segments"] = metric{after[walSegments], "count", 0}

	// Collections within the windows only: the pass forces one between
	// windows to sample the live heap.
	var ops, gcs float64
	var pause time.Duration
	for _, w := range ws {
		ops += float64(w.hi - w.lo)
		gcs += float64(w.gcs)
		pause += w.pause
	}
	m["runtime.gc_cycles_per_kop"] = metric{gcs * 1000 / ops, "count", 0}
	m["runtime.gc_pause_ms_per_kop"] = metric{float64(pause.Nanoseconds()) / 1e3 / ops, "ms", 0}

	growthKB := (float64(ws[len(ws)-1].heap) - float64(heapSetup)) / 1024
	m["citation.heap_kb_per_distinct_query"] = metric{ratio(growthKB, float64(st.Distinct)), "KB", 0}
	m["fixity.heap_kb_per_commit"] = metric{ratio(growthKB, float64(commits)), "KB", 0}
}

// Command upiload is the load generator for upiserve: M concurrent
// clients driving a mixed PTQ / top-k / insert workload at an optional
// target rate, reporting throughput and latency percentiles as JSON.
//
//	upiload -addr http://localhost:8080 -table authors \
//	    -clients 16 -duration 10s -mix ptq=0.6,topk=0.2,insert=0.2
//
// The traffic matches the synthetic schema upiserve -preload writes:
// primary-attribute values v0..v15, secondary values w0..w7. The exit
// code is non-zero when any request failed at the transport level or
// with a 5xx (429s are expected under overload and reported, not
// fatal) — the CI smoke gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request.
type sample struct {
	kind    string
	status  int // 0 = transport error
	latency time.Duration
}

// mixSpec is the parsed -mix flag: kind → weight.
type mixSpec []struct {
	kind   string
	weight float64
}

func parseMix(v string) (mixSpec, error) {
	var mix mixSpec
	total := 0.0
	for _, part := range strings.Split(v, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -mix part %q: want kind=weight", part)
		}
		var w float64
		if _, err := fmt.Sscanf(kv[1], "%g", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", kv[1])
		}
		switch kv[0] {
		case "ptq", "topk", "insert", "delete":
		default:
			return nil, fmt.Errorf("unknown -mix kind %q", kv[0])
		}
		mix = append(mix, struct {
			kind   string
			weight float64
		}{kv[0], w})
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("-mix weights sum to zero")
	}
	return mix, nil
}

// pick draws a kind from the mix.
func (m mixSpec) pick(rng *rand.Rand) string {
	total := 0.0
	for _, e := range m {
		total += e.weight
	}
	x := rng.Float64() * total
	for _, e := range m {
		if x < e.weight {
			return e.kind
		}
		x -= e.weight
	}
	return m[len(m)-1].kind
}

// percentile returns the p-th percentile (0..100) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// discoverPrimary asks the server's stats endpoint for the table's
// primary attribute, retrying briefly so the loadgen can start before
// the server finishes binding.
func discoverPrimary(client *http.Client, base, table string) (string, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		resp, err := client.Get(fmt.Sprintf("%s/v1/tables/%s/stats", base, table))
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("stats: %s: %s", resp.Status, strings.TrimSpace(string(body)))
			continue
		}
		var stats struct {
			PrimaryAttr string `json:"primary_attr"`
		}
		if err := json.Unmarshal(body, &stats); err != nil {
			return "", err
		}
		if stats.PrimaryAttr == "" {
			return "", fmt.Errorf("stats response missing primary_attr")
		}
		return stats.PrimaryAttr, nil
	}
	return "", lastErr
}

// scrapeServerMetrics pulls the server's /metrics exposition and
// extracts the server-side refusal picture — HTTP refusal counters and
// engine insert and yield counts — so the final report shows the
// server's view next to the client-side percentiles. Best-effort: any
// failure returns nil and the report simply omits the section.
func scrapeServerMetrics(client *http.Client, base string) map[string]float64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	want := map[string]string{
		"upidb_http_overload_refusals_total": "http_overload_refusals",
		"upidb_http_deadline_refusals_total": "http_deadline_refusals",
		"upidb_fracture_inserts_total":       "engine_inserts",
		"upidb_stream_yields_total":          "engine_yields",
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		key, ok := want[line[:i]]
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err == nil {
			out[key] = v
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	var (
		addr      = flag.String("addr", "http://localhost:8080", "upiserve base URL")
		table     = flag.String("table", "authors", "table to drive")
		attr      = flag.String("attr", "", "PTQ attribute (empty = primary)")
		clients   = flag.Int("clients", 8, "concurrent client goroutines")
		duration  = flag.Duration("duration", 5*time.Second, "run length")
		rate      = flag.Float64("rate", 0, "target total requests/sec (0 = unthrottled)")
		mixFlag   = flag.String("mix", "ptq=0.6,topk=0.2,insert=0.2", "traffic mix kind=weight,...")
		qt        = flag.Float64("qt", 0.25, "PTQ confidence threshold")
		k         = flag.Int("k", 10, "top-k result bound")
		timeoutMS = flag.Int("timeout-ms", 0, "per-request timeout_ms sent to the server (0 = none)")
		jsonOut   = flag.String("json", "", "write the report to this file (empty = stdout)")
		seed      = flag.Int64("seed", 1, "workload RNG seed")
		failOn5xx = flag.Bool("fail-on-5xx", true, "exit non-zero on any 5xx or transport error")
	)
	flag.Parse()
	mix, err := parseMix(*mixFlag)
	if err != nil {
		log.Fatal(err)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	base := strings.TrimRight(*addr, "/")
	if *attr == "" {
		// Discover the primary attribute so inserts carry a valid
		// uncertain field (queries accept attr:"" as "primary" already).
		primary, err := discoverPrimary(client, base, *table)
		if err != nil {
			log.Fatalf("stats probe: %v (pass -attr explicitly to skip)", err)
		}
		*attr = primary
	}
	var insertSeq atomic.Uint64
	insertSeq.Store(1_000_000_000) // far above any preloaded ID

	// Per-client pacing: each of the N clients issues rate/N req/s.
	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(*clients) / *rate * float64(time.Second))
	}

	samples := make([][]sample, *clients)
	var wg sync.WaitGroup
	stopAt := time.Now().Add(*duration)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)*7919))
			next := time.Now()
			for time.Now().Before(stopAt) {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				kind := mix.pick(rng)
				var (
					url  string
					body any
				)
				switch kind {
				case "ptq":
					url = fmt.Sprintf("%s/v1/tables/%s/query", base, *table)
					body = map[string]any{"kind": "ptq", "attr": *attr,
						"value": fmt.Sprintf("v%d", rng.Intn(16)), "qt": *qt, "timeout_ms": *timeoutMS}
				case "topk":
					url = fmt.Sprintf("%s/v1/tables/%s/query", base, *table)
					body = map[string]any{"kind": "topk",
						"value": fmt.Sprintf("v%d", rng.Intn(16)), "k": *k, "timeout_ms": *timeoutMS}
				case "insert":
					url = fmt.Sprintf("%s/v1/tables/%s/insert", base, *table)
					id := insertSeq.Add(1)
					body = map[string]any{"id": id, "existence": 1, "unc": []any{
						map[string]any{"name": *attr, "alts": []any{
							map[string]any{"value": fmt.Sprintf("v%d", rng.Intn(16)), "prob": 0.8},
							map[string]any{"value": fmt.Sprintf("v%d", rng.Intn(16)+16), "prob": 0.2},
						}},
					}}
				case "delete":
					url = fmt.Sprintf("%s/v1/tables/%s/delete", base, *table)
					body = map[string]any{"id": insertSeq.Load()}
				}
				buf, _ := json.Marshal(body)
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
				s := sample{kind: kind, latency: time.Since(t0)}
				if err != nil {
					s.status = 0
				} else {
					// Drain the streamed body so latency covers the full
					// response and connections are reused.
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					s.status = resp.StatusCode
					s.latency = time.Since(t0)
				}
				samples[c] = append(samples[c], s)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	for _, s := range samples {
		all = append(all, s...)
	}
	lat := make([]time.Duration, 0, len(all))
	counts := map[string]int{}
	byKind := map[string][]time.Duration{}
	errTransport, err4xx, err5xx, err429 := 0, 0, 0, 0
	for _, s := range all {
		counts[s.kind]++
		switch {
		case s.status == 0:
			errTransport++
		case s.status == 429:
			err429++
		case s.status >= 500:
			err5xx++
		case s.status >= 400:
			err4xx++
		default:
			lat = append(lat, s.latency)
			byKind[s.kind] = append(byKind[s.kind], s.latency)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

	type kindReport struct {
		Requests int     `json:"requests"`
		P50MS    float64 `json:"p50_ms"`
		P95MS    float64 `json:"p95_ms"`
		P99MS    float64 `json:"p99_ms"`
	}
	report := struct {
		Requests      int                   `json:"requests"`
		Succeeded     int                   `json:"succeeded"`
		DurationS     float64               `json:"duration_s"`
		ThroughputRPS float64               `json:"throughput_rps"`
		Errors        map[string]int        `json:"errors"`
		LatencyMS     map[string]float64    `json:"latency_ms"`
		ByKind        map[string]kindReport `json:"by_kind"`
		Server        map[string]float64    `json:"server,omitempty"`
	}{
		Requests:      len(all),
		Succeeded:     len(lat),
		DurationS:     elapsed.Seconds(),
		ThroughputRPS: float64(len(all)) / elapsed.Seconds(),
		Errors: map[string]int{
			"transport": errTransport, "http_4xx": err4xx,
			"http_5xx": err5xx, "http_429": err429,
		},
		LatencyMS: map[string]float64{
			"p50": ms(percentile(lat, 50)),
			"p95": ms(percentile(lat, 95)),
			"p99": ms(percentile(lat, 99)),
		},
		ByKind: map[string]kindReport{},
	}
	for kind, ds := range byKind {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		report.ByKind[kind] = kindReport{
			Requests: counts[kind],
			P50MS:    ms(percentile(ds, 50)),
			P95MS:    ms(percentile(ds, 95)),
			P99MS:    ms(percentile(ds, 99)),
		}
	}
	// Scrape the server's own counters while it is still up, so the
	// report pairs its refusal view with the client's.
	report.Server = scrapeServerMetrics(client, base)

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		os.Stdout.Write(out)
	}
	if *failOn5xx && (err5xx > 0 || errTransport > 0) {
		log.Fatalf("FAIL: %d transport errors, %d 5xx responses", errTransport, err5xx)
	}
}

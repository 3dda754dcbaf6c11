package serve

// Tests for the /metrics Prometheus exposition: every line well-formed,
// HELP/TYPE present for every family, histogram buckets cumulative and
// +Inf-terminated, and counters monotone across scrapes — including
// scrapes racing live builds (the CI -race job runs these).

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promScrape is one parsed exposition: HELP/TYPE per family plus samples.
type promScrape struct {
	help    map[string]string
	typ     map[string]string
	samples []promSample
}

// seriesID identifies a sample across scrapes: name plus sorted labels.
func (s promSample) seriesID() string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	id := s.name
	for _, k := range keys {
		id += "," + k + "=" + s.labels[k]
	}
	return id
}

// baseFamily maps a histogram sample name to its family name.
func baseFamily(name string, typ map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && typ[base] == "histogram" {
			return base
		}
	}
	return name
}

// parseExposition parses (and structurally validates) a text exposition.
func parseExposition(t *testing.T, body string) promScrape {
	t.Helper()
	sc := promScrape{help: map[string]string{}, typ: map[string]string{}}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP %q", lineNo, line)
			}
			sc.help[name] = help
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Fatalf("line %d: malformed TYPE %q", lineNo, line)
			}
			if _, dup := sc.typ[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			sc.typ[name] = kind
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		default:
			sc.samples = append(sc.samples, parseSampleLine(t, lineNo, line, sc.typ, sc.help))
		}
	}
	return sc
}

func parseSampleLine(t *testing.T, lineNo int, line string, typ, help map[string]string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			t.Fatalf("line %d: unterminated label set %q", lineNo, line)
		}
		for _, pair := range splitLabelPairs(rest[i+1 : end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: malformed label pair %q in %q", lineNo, pair, line)
			}
			s.labels[k] = v[1 : len(v)-1]
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			t.Fatalf("line %d: sample without value %q", lineNo, line)
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value in %q: %v", lineNo, line, err)
	}
	s.value = v
	fam := baseFamily(s.name, typ)
	if _, ok := typ[fam]; !ok {
		t.Fatalf("line %d: sample %q has no preceding TYPE for family %q", lineNo, line, fam)
	}
	if _, ok := help[fam]; !ok {
		t.Fatalf("line %d: sample %q has no preceding HELP for family %q", lineNo, line, fam)
	}
	return s
}

// splitLabelPairs splits k1="v1",k2="v2" respecting quoted values (the
// exposition escapes inner quotes as \").
func splitLabelPairs(s string) []string {
	var (
		pairs    []string
		start    int
		inQuotes bool
	)
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && inQuotes:
			i++
		case s[i] == '"':
			inQuotes = !inQuotes
		case s[i] == ',' && !inQuotes:
			pairs = append(pairs, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		pairs = append(pairs, s[start:])
	}
	return pairs
}

// checkHistograms verifies every histogram family: per series, buckets are
// cumulative (nondecreasing in le order), terminated by le="+Inf", and the
// +Inf bucket equals _count.
func checkHistograms(t *testing.T, sc promScrape) {
	t.Helper()
	type hseries struct {
		buckets []promSample // in exposition order, which is le-ascending
		count   float64
		hasInf  bool
		infVal  float64
		hasCnt  bool
	}
	series := map[string]*hseries{}
	keyOf := func(s promSample) string {
		cp := promSample{name: baseFamily(s.name, sc.typ), labels: map[string]string{}}
		for k, v := range s.labels {
			if k != "le" {
				cp.labels[k] = v
			}
		}
		return cp.seriesID()
	}
	for _, s := range sc.samples {
		fam := baseFamily(s.name, sc.typ)
		if sc.typ[fam] != "histogram" {
			continue
		}
		hs := series[keyOf(s)]
		if hs == nil {
			hs = &hseries{}
			series[keyOf(s)] = hs
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("histogram bucket %v without le label", s)
			}
			if le == "+Inf" {
				hs.hasInf, hs.infVal = true, s.value
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("histogram bucket le=%q is not a float", le)
			}
			hs.buckets = append(hs.buckets, s)
		case strings.HasSuffix(s.name, "_count"):
			hs.hasCnt, hs.count = true, s.value
		}
	}
	if len(series) == 0 {
		t.Fatal("exposition contains no histogram series")
	}
	for id, hs := range series {
		if !hs.hasInf {
			t.Fatalf("histogram %s has no le=\"+Inf\" bucket", id)
		}
		if !hs.hasCnt {
			t.Fatalf("histogram %s has no _count sample", id)
		}
		if hs.infVal != hs.count {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v", id, hs.infVal, hs.count)
		}
		for i := 1; i < len(hs.buckets); i++ {
			if hs.buckets[i].value < hs.buckets[i-1].value {
				t.Fatalf("histogram %s: bucket counts not cumulative at index %d (%v < %v)",
					id, i, hs.buckets[i].value, hs.buckets[i-1].value)
			}
		}
		if hs.buckets[len(hs.buckets)-1].labels["le"] != "+Inf" {
			t.Fatalf("histogram %s: last bucket is not +Inf", id)
		}
	}
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// familyName is the naming rule for every exposed family.
var familyName = regexp.MustCompile(`^reprod_[a-z0-9_]+$`)

// requiredFamilies is the metric surface the README documents — exactly
// what /metrics exposes, which TestMetricsExpositionWellFormed checks in
// both directions. CI's smoke job greps a live daemon for the same names.
var requiredFamilies = []string{
	"reprod_http_requests_total",
	"reprod_http_request_duration_seconds",
	"reprod_http_in_flight_requests",
	"reprod_http_errors_total",
	"reprod_requests_rejected_total",
	"reprod_request_slots_in_use",
	"reprod_point_query_duration_seconds",
	"reprod_batch_pairs_total",
	"reprod_batch_size_pairs",
	"reprod_artifact_cache_hits_total",
	"reprod_artifact_cache_misses_total",
	"reprod_artifact_cache_entries",
	"reprod_artifact_cache_capacity",
	"reprod_artifact_cache_evictions_total",
	"reprod_snapshot_installs_total",
	"reprod_builds_total",
	"reprod_builds_cancelled_total",
	"reprod_builds_timed_out_total",
	"reprod_builds_in_flight",
	"reprod_build_pool_occupancy",
	"reprod_build_pool_size",
	"reprod_build_duration_seconds",
	"reprod_graphs",
	"reprod_engine_bsp_rounds_total",
	"reprod_engine_pull_rounds_total",
	"reprod_engine_arcs_scanned_total",
	"reprod_engine_relaxations_total",
	"reprod_engine_buckets_total",
	"reprod_requests_shed_total",
	"reprod_requests_client_gone_total",
	"reprod_fast_lane_queue_depth",
	"reprod_breaker_trips_total",
	"reprod_breaker_rejected_total",
	"reprod_breaker_probes_total",
	"reprod_breaker_open_keys",
}

func TestMetricsExpositionWellFormed(t *testing.T) {
	g := graph.Mesh(30, 30)
	_, ts := newTestServer(t, "mesh", g)

	// Drive every metric family: a build + point queries (hit and miss),
	// a 400, a 404, and /builds itself.
	getJSON(t, ts.URL+"/distance?graph=mesh&tau=2&seed=1&u=0&v=899", nil)
	getJSON(t, ts.URL+"/distance?graph=mesh&tau=2&seed=1&u=1&v=2", nil)
	// A batch request, so the batch pair counter and size histogram carry
	// samples (not just TYPE lines) in the scrape below.
	resp, err := http.Post(ts.URL+"/distance-batch?graph=mesh&tau=2&seed=1",
		"application/json", strings.NewReader(`{"pairs":[[0,1],[2,3],[4,4]]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/distance-batch status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/distance?graph=mesh&u=bad&v=2", nil)
	getJSON(t, ts.URL+"/distance?graph=nope&u=0&v=1", nil)
	getJSON(t, ts.URL+"/builds", nil)

	first := parseExposition(t, scrapeMetrics(t, ts.URL))
	checkHistograms(t, first)
	// Two-way: the scrape and requiredFamilies name the same families,
	// so a renamed, dropped or unlisted registration fails here. (A
	// duplicate registration panics obs.Registry in every serve test.)
	required := map[string]bool{}
	for _, fam := range requiredFamilies {
		required[fam] = true
		if _, ok := first.typ[fam]; !ok {
			t.Errorf("required family %s missing from exposition", fam)
		}
	}
	for fam := range first.typ {
		if !required[fam] {
			t.Errorf("family %s is exposed but not in requiredFamilies (and the README's metric table)", fam)
		}
		if !familyName.MatchString(fam) {
			t.Errorf("family %s does not match %s", fam, familyName)
		}
	}

	// Second scrape after more traffic: every counter sample present in
	// the first scrape must be present and not smaller.
	getJSON(t, ts.URL+"/distance?graph=mesh&tau=2&seed=1&u=3&v=4", nil)
	getJSON(t, ts.URL+"/diameter?graph=mesh&tau=2&seed=1", nil)
	second := parseExposition(t, scrapeMetrics(t, ts.URL))
	checkHistograms(t, second)
	checkCountersMonotone(t, first, second)
}

// checkCountersMonotone asserts no counter (or histogram bucket/sum/count)
// series went backwards between two scrapes.
func checkCountersMonotone(t *testing.T, a, b promScrape) {
	t.Helper()
	bVals := map[string]float64{}
	for _, s := range b.samples {
		bVals[s.seriesID()] = s.value
	}
	for _, s := range a.samples {
		fam := baseFamily(s.name, a.typ)
		if a.typ[fam] != "counter" && a.typ[fam] != "histogram" {
			continue
		}
		after, ok := bVals[s.seriesID()]
		if !ok {
			t.Errorf("counter series %s disappeared between scrapes", s.seriesID())
			continue
		}
		if after < s.value {
			t.Errorf("counter series %s went backwards: %v -> %v", s.seriesID(), s.value, after)
		}
	}
}

// TestMetricsScrapeDuringConcurrentBuilds races scrapes against live
// builds and queries; under -race this doubles as the data-race proof for
// the whole observability write path (observer callbacks included).
func TestMetricsScrapeDuringConcurrentBuilds(t *testing.T) {
	g := graph.Mesh(40, 40)
	_, ts := newTestServer(t, "mesh", g)

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				// Distinct seeds mint distinct keys, so builds keep starting
				// while the scraper below reads the counters they feed.
				url := fmt.Sprintf("%s/distance?graph=mesh&tau=2&seed=%d&u=%d&v=%d",
					ts.URL, seed*10+i, seed, i)
				resp, err := http.Get(url)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var prev promScrape
	for scrapes := 0; ; scrapes++ {
		sc := parseExposition(t, scrapeMetrics(t, ts.URL))
		checkHistograms(t, sc)
		if scrapes > 0 {
			checkCountersMonotone(t, prev, sc)
		}
		prev = sc
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-done:
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			return
		default:
		}
	}
}

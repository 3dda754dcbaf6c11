package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/gonzalez"
)

// verify checks the outputs of every phase against references the
// benchmark owns or exact algorithms, counting each check as an operation,
// and derives the three quality ratios from the same references.
func (r *run) verify() error {
	n := r.in.g.NumNodes()
	id := r.tr.begin("verify", 0)
	defer r.tr.end(id)

	// Diameter: ∆C ≤ ∆ ≤ Upper against iFUB capped at 64 searches. When
	// the cap is hit iFUB's value is a certified lower bound, which still
	// bounds Upper from below.
	var delta int32
	var exact bool
	r.metrics["graph.ifub_s"] = r.timed("graph.ifub", 0, func() { delta, exact = r.in.g.ExactDiameter(64) })
	var ratios []float64
	for j, d := range r.diam {
		if !d.done {
			continue
		}
		r.check(int64(delta) <= d.upper, "diameter seed %d: Upper %d below ∆ ≥ %d", j, d.upper, delta)
		if exact {
			r.check(d.deltaC <= int64(delta), "diameter seed %d: ∆C %d above ∆ = %d", j, d.deltaC, delta)
		}
		ratios = append(ratios, float64(d.upper)/float64(delta))
	}
	r.metrics["diameter_ratio"] = mean(ratios)
	logf("%-22s %9.4f  (∆ %d, exact %v; Upper/∆ per seed %.3f)", "diameter_ratio", mean(ratios), delta, exact, ratios)

	// k-center: the radius is what a multi-source sweep from the centers
	// measures, and is compared with Gonzalez' 2-approximation.
	_, gRadius, err := gonzalez.KCenter(r.in.g, r.w.kcenterK, 0)
	if !r.check(err == nil && gRadius > 0, "gonzalez.KCenter: radius %d, %v", gRadius, err) {
		return fmt.Errorf("no k-center reference")
	}
	ratios = ratios[:0]
	for j, k := range r.kcenter {
		if !k.done {
			continue
		}
		r.check(len(k.centers) >= 1 && len(k.centers) <= r.w.kcenterK, "kcenter seed %d: %d centers for k = %d", j, len(k.centers), r.w.kcenterK)
		reached, radius := r.ref.sweep(k.centers...)
		r.check(reached == n && radius == k.radius, "kcenter seed %d: Radius %d, recomputed %d over %d of %d nodes", j, k.radius, radius, reached, n)
		ratios = append(ratios, float64(k.radius)/float64(gRadius))
	}
	r.metrics["kcenter_ratio"] = mean(ratios)
	logf("%-22s %9.4f  (Gonzalez radius %d; per seed %.2f)", "kcenter_ratio", mean(ratios), gRadius, ratios)

	// Oracle: LowerQuery ≤ d ≤ Query on the sampled pairs, at both worker
	// counts, and the mean stretch. (The two builds need not agree with
	// each other: at more than one worker, growth lets an arbitrary
	// contender win a node, as the paper allows.)
	var exactD []int64
	for _, a := range r.in.sources {
		r.ref.sweep(a)
		for _, b := range r.in.targets {
			exactD = append(exactD, int64(r.ref.dist[b]))
		}
	}
	ratios = ratios[:0]
	for j, o := range r.oracle {
		if !o.done || o.upper1p == nil {
			continue
		}
		bad := 0
		var sum float64
		cnt := 0
		for i, d := range exactD {
			if o.lower[i] > d || o.upper[i] < d || o.upper1p[i] < d {
				bad++
			}
			if d > 0 {
				sum += float64(o.upper[i]) / float64(d)
				cnt++
			}
		}
		r.check(bad == 0, "oracle seed %d: %d of %d sampled pairs violate LowerQuery ≤ d ≤ Query", j, bad, len(exactD))
		ratios = append(ratios, sum/float64(cnt))
	}
	r.metrics["oracle_stretch"] = mean(ratios)
	logf("%-22s %9.4f  (per seed %.3f; %d clusters at seed 0)", "oracle_stretch", mean(ratios), ratios, r.oracle[0].clusters)

	// MR: repeated squaring must find the exact weighted quotient diameter.
	for j, m := range r.mrOut {
		if m.wq == nil {
			continue
		}
		want, ok := m.wq.ExactDiameterWeighted(0)
		r.check(ok && want == m.diameter, "mr seed %d: squaring says %d, exact weighted diameter %d (exact %v)", j, m.diameter, want, ok)
	}

	return r.verifyDaemon(exactD)
}

// verifyDaemon asks the live daemon for the sampled pairs three ways —
// point queries, one binary batch, one JSON batch — and checks that the
// three agree pair for pair and that every answer brackets the exact
// distance.
func (r *run) verifyDaemon(exactD []int64) error {
	var prs [][2]int32
	for _, a := range r.in.sources {
		for _, b := range r.in.targets {
			prs = append(prs, [2]int32{a, b})
		}
	}
	c := r.daemonBatchT.conns[0]

	point := make([]int64, len(prs))
	bad := 0
	for i, p := range prs {
		status, body, err := c.do(pointRequest(p[0], p[1]))
		var ans struct {
			Distance int64 `json:"distance"`
			Lower    int64 `json:"lower"`
		}
		if err != nil || status != 200 || json.Unmarshal(body, &ans) != nil || ans.Lower > exactD[i] || ans.Distance < exactD[i] {
			bad++
		}
		point[i] = ans.Distance
	}
	r.check(bad == 0, "daemon: %d of %d point answers fail or do not bracket the exact distance", bad, len(prs))

	status, body, err := c.do(batchRequest(ctPairsBinary, encodePairsFrame(prs)))
	var got []int64
	if err == nil && status == 200 {
		got, err = decodeDistsFrame(body)
	}
	r.check(err == nil && status == 200 && slices.Equal(got, point), "daemon: binary batch differs from the point answers (status %d, %v)", status, err)

	var js bytes.Buffer
	js.WriteString(`{"pairs":[`)
	for i, p := range prs {
		if i > 0 {
			js.WriteByte(',')
		}
		fmt.Fprintf(&js, "[%d,%d]", p[0], p[1])
	}
	js.WriteString("]}")
	status, body, err = c.do(batchRequest(ctJSON, js.Bytes()))
	var ans struct {
		Distances []int64 `json:"distances"`
	}
	if err == nil && status == 200 {
		err = json.Unmarshal(body, &ans)
	}
	r.check(err == nil && status == 200 && slices.Equal(ans.Distances, point), "daemon: JSON batch differs from the point answers (status %d, %v)", status, err)
	return nil
}

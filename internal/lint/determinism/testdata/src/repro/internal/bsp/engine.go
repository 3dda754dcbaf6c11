// Package bsp is analyzer testdata mimicking an engine package: its import
// path is in determinism.EnginePackages, so all three rules apply, and a
// //lint:allow annotation silences none of them.
package bsp

import (
	"math/rand" // want `math/rand in engine package repro/internal/bsp`
	"sort"
	"time"
)

func Draw() int {
	return rand.Intn(10)
}

func SumMap(m map[string]int) int {
	total := 0
	for _, v := range m { // want `range over map map\[string\]int in engine package`
		total += v
	}
	return total
}

func SumMapSorted(m map[string]int) int {
	keys := make([]string, 0, len(m))
	//lint:allow mapiter keys are sorted immediately below
	for k := range m { // want `range over map map\[string\]int in engine package`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

func SumSlice(s []int) int {
	total := 0
	for _, v := range s { // slices iterate in order: no diagnostic
		total += v
	}
	return total
}

func Stamp() time.Time {
	return time.Now() // want `time.Now in engine package repro/internal/bsp`
}

func StampAllowed() time.Time {
	//lint:allow walltime accounting-only timer
	return time.Now() // want `time.Now in engine package repro/internal/bsp`
}

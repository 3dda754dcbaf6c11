package main

import "testing"

// A size the generator cannot build is an error naming it, not a panic;
// the smallest sizes it can build still build.
func TestGenerateRefusesSizesItsGeneratorCannotBuild(t *testing.T) {
	for _, spec := range []string{"mesh:0x5", "road:1x1", "ba:0", "ba:10:0", "ba:10:10", "rmat:40", "rmat:-1", "er:-5"} {
		if g, err := generate(spec); err == nil {
			t.Errorf("generate(%q) built %d nodes, want an error", spec, g.NumNodes())
		}
	}
	for _, spec := range []string{"mesh:1x1", "road:2x2", "ba:2:1", "rmat:0", "er:0"} {
		if _, err := generate(spec); err != nil {
			t.Errorf("generate(%q): %v", spec, err)
		}
	}
}

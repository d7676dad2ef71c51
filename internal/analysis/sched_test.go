package analysis

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestTopoOrderPutsDependenciesFirst(t *testing.T) {
	mod := writeTestModule(t)
	loader, err := NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	order := topoOrder(pkgs)
	if len(order) != len(pkgs) {
		t.Fatalf("topoOrder dropped packages: got %d, want %d", len(order), len(pkgs))
	}
	pos := map[string]int{}
	for i, p := range order {
		pos[p.ImportPath] = i
	}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if j, ok := pos[imp.Path()]; ok && j > pos[p.ImportPath] {
				t.Fatalf("%s scheduled before its dependency %s", p.ImportPath, imp.Path())
			}
		}
	}
}

func TestRunDAGHonorsDependencies(t *testing.T) {
	// Diamond with a tail: 4 depends on 2 and 3, which depend on 1; 0 is free.
	deps := [][]int{nil, nil, {1}, {1}, {2, 3}}
	var mu sync.Mutex
	finished := map[int]bool{}
	runs := 0
	n := runDAG(len(deps), deps, 3, func(i int) {
		mu.Lock()
		for _, d := range deps[i] {
			if !finished[d] {
				t.Errorf("node %d started before dependency %d finished", i, d)
			}
		}
		runs++
		finished[i] = true
		mu.Unlock()
	})
	if n != len(deps) || runs != len(deps) {
		t.Fatalf("executed %d nodes (callback ran %d), want %d", n, runs, len(deps))
	}
}

func TestRunDAGStopsAtCycle(t *testing.T) {
	// 1 <-> 2 cycle; 0 independent.
	deps := [][]int{nil, {2}, {1}}
	var ran atomic.Int64
	n := runDAG(len(deps), deps, 2, func(i int) { ran.Add(1) })
	if n != 1 || ran.Load() != 1 {
		t.Fatalf("cycle: executed %d nodes (reported %d), want 1", ran.Load(), n)
	}
}

func TestRunDAGEmpty(t *testing.T) {
	if n := runDAG(0, nil, 4, func(int) { t.Fatal("exec called") }); n != 0 {
		t.Fatalf("empty graph executed %d nodes", n)
	}
}

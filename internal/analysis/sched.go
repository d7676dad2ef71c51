package analysis

import "sync"

// This file is the scheduler: Engine.Run analyzes units concurrently with
// runDAG over a bounded worker pool, ordered by the import graph so that
// package facts always flow from a dependency to its importers, and the
// serial Run walks the same graph in topoOrder. The output contract is
// strict — after SortDiagnostics, Engine.Run must be byte-identical to the
// serial Run for the same inputs at any worker count (a test enforces
// this) — which is why diagnostics are collected into per-unit slots
// rather than a shared append, and the final sort key is a total order
// over (file, line, column, analyzer, message).

// topoOrder returns pkgs in dependency order (imported before importer),
// restricted to edges within the given set. Used by the serial Run so facts
// propagate identically to Engine.Run's parallel schedule. Type-checked
// packages cannot form import cycles, so every package appears exactly
// once.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	seen := make(map[string]bool, len(pkgs))
	out := make([]*Package, 0, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.ImportPath] {
			return
		}
		seen[p.ImportPath] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// runDAG executes exec(i) for each of n nodes using up to workers
// goroutines, where deps[i] lists the nodes that must finish before node i
// may start. It returns the number of nodes executed, which is less than n
// only when the graph has a cycle (impossible for import graphs of
// type-checked packages; the engine checks the count for scan-level graphs).
func runDAG(n int, deps [][]int, workers int, exec func(int)) int {
	if n == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	blockers := make([]int, n)
	dependents := make([][]int, n)
	for i, ds := range deps {
		for _, j := range ds {
			blockers[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	// Kahn count up front: with a cycle, some nodes never unblock, so the
	// workers must stop at the reachable total instead of deadlocking.
	total := 0
	{
		remaining := make([]int, n)
		copy(remaining, blockers)
		queue := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if remaining[i] == 0 {
				queue = append(queue, i)
			}
		}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			total++
			for _, j := range dependents[i] {
				remaining[j]--
				if remaining[j] == 0 {
					queue = append(queue, j)
				}
			}
		}
	}
	if total == 0 {
		return 0
	}

	// The ready channel is buffered to hold every node, so unblocking
	// dependents while holding mu can never block a worker.
	ready := make(chan int, n)
	for i := 0; i < n; i++ {
		if blockers[i] == 0 {
			ready <- i
		}
	}
	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				exec(i)
				mu.Lock()
				for _, j := range dependents[i] {
					blockers[j]--
					if blockers[j] == 0 {
						ready <- j
					}
				}
				done++
				if done == total {
					close(ready)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return total
}

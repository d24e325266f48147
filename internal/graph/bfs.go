package graph

// HopDistances returns, for every node, its minimum hop distance to the
// source set (0 for sources, -1 for unreachable nodes).
func (g *Graph) HopDistances(sources []int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if s < 0 || s >= len(g.adj) || dist[s] == 0 {
			continue
		}
		dist[s] = 0
		queue = append(queue, int32(s))
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// WithinHops returns the set of nodes whose hop distance to the source set is
// at most k (including the sources themselves), as a sorted slice.
func (g *Graph) WithinHops(sources []int, k int) []int {
	dist := g.HopDistances(sources)
	var out []int
	for u, d := range dist {
		if d >= 0 && d <= k {
			out = append(out, u)
		}
	}
	return out
}

// BFSOrder returns all nodes reachable from start in breadth-first order,
// starting with start itself.
func (g *Graph) BFSOrder(start int) []int {
	if start < 0 || start >= len(g.adj) {
		return nil
	}
	seen := make([]bool, len(g.adj))
	seen[start] = true
	order := []int{start}
	for i := 0; i < len(order); i++ {
		for _, v := range g.adj[order[i]] {
			if !seen[v] {
				seen[v] = true
				order = append(order, int(v))
			}
		}
	}
	return order
}

// ConnectedSubset grows a mutually connected subset of exactly size nodes by
// breadth-first expansion from start. It returns an error-free nil if the
// component of start has fewer than size nodes. This mirrors the gMission
// experiment setup, where the queried roads form "a mutually connected
// subcomponent of R" (§VII-A).
func (g *Graph) ConnectedSubset(start, size int) []int {
	order := g.BFSOrder(start)
	if len(order) < size {
		return nil
	}
	return order[:size]
}

// Package scc finds the strongly connected components of a directed graph.
// The conflict-graph analysis runs it over the abort graph between cores,
// and the serializability oracle over the direct serialization graph
// between transactions.
package scc

import "math"

// Components runs Tarjan's algorithm over the graph on vertices
// 0..len(at)-2, where vertex v's out-neighbours are to[at[v]:at[v+1]],
// taken in that order. It calls emit once for every component of two or
// more vertices, in the order the algorithm completes them, with the
// members in the order they leave the stack. comp is valid only during
// the call.
//
// The search is iterative, so its depth does not grow with the graph: the
// oracle's graphs chain thousands of transactions. All of its state is
// one allocation of four int32s per vertex.
func Components(at, to []int32, emit func(comp []int32)) {
	n := len(at) - 1
	if n <= 0 {
		return
	}
	buf := make([]int32, 4*n)
	// index[v] is v's visit ordinal: -1 before the visit, and done once v
	// has left the stack, so index[w] < low[v] only for w on the stack.
	index, low := buf[:n], buf[n:2*n]
	stack := buf[2*n : 2*n : 3*n]
	// call is the DFS path as (vertex, next edge) pairs.
	call := buf[3*n : 3*n : 4*n]
	const done = math.MaxInt32
	for i := range index {
		index[i] = -1
	}
	var next int32
	visit := func(v int32) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		call = append(call, v, at[v])
	}
	for start := int32(0); int(start) < n; start++ {
		if index[start] != -1 {
			continue
		}
		visit(start)
		for len(call) > 0 {
			v, ei := call[len(call)-2], &call[len(call)-1]
			if *ei < at[v+1] {
				w := to[*ei]
				*ei++
				if index[w] == -1 {
					visit(w)
				} else if index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			call = call[:len(call)-2]
			if low[v] == index[v] {
				k := len(stack) - 1
				for stack[k] != v {
					k--
				}
				comp := stack[k:]
				for _, w := range comp {
					index[w] = done
				}
				if len(comp) > 1 {
					for i, j := 0, len(comp)-1; i < j; i, j = i+1, j-1 {
						comp[i], comp[j] = comp[j], comp[i]
					}
					emit(comp)
				}
				stack = stack[:k]
			}
			if len(call) > 0 {
				if p := call[len(call)-2]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
}

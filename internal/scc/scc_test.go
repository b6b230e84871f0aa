package scc

import (
	"math/rand"
	"reflect"
	"testing"
)

// csr packs adjacency lists into Components' compressed rows.
func csr(adj [][]int32) (at, to []int32) {
	at = make([]int32, len(adj)+1)
	for v, succ := range adj {
		to = append(to, succ...)
		at[v+1] = int32(len(to))
	}
	return at, to
}

// collect returns Components' output, copying each comp.
func collect(adj [][]int32) [][]int32 {
	var out [][]int32
	at, to := csr(adj)
	Components(at, to, func(comp []int32) {
		out = append(out, append([]int32(nil), comp...))
	})
	return out
}

// recursive is textbook recursive Tarjan, the reference for emission and
// member order.
func recursive(adj [][]int32) [][]int32 {
	n := len(adj)
	index, low := make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	var out [][]int32
	next := 0
	var strongconnect func(v int32)
	strongconnect = func(v int32) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == -1 {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var comp []int32
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				out = append(out, comp)
			}
		}
	}
	for v := range adj {
		if index[v] == -1 {
			strongconnect(int32(v))
		}
	}
	return out
}

func TestComponentsOrder(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 and 3 <-> 4, with 4 -> 0 and a self-loop on 5.
	adj := [][]int32{{1}, {2}, {0}, {4}, {3, 0}, {5}}
	want := [][]int32{{2, 1, 0}, {4, 3}}
	if got := collect(adj); !reflect.DeepEqual(got, want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
	if got := collect(nil); got != nil {
		t.Fatalf("empty graph: components = %v", got)
	}
}

func TestComponentsMatchRecursive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(40)
		adj := make([][]int32, n)
		edges := r.Intn(3 * n)
		for i := 0; i < edges; i++ {
			v := r.Intn(n)
			adj[v] = append(adj[v], int32(r.Intn(n)))
		}
		if got, want := collect(adj), recursive(adj); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, graph %v:\n got %v\nwant %v", trial, adj, got, want)
		}
	}
}

// TestComponentsDeepCycle: a cycle through a million vertices is one
// component, found without recursion.
func TestComponentsDeepCycle(t *testing.T) {
	const n = 1 << 20
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = []int32{int32((v + 1) % n)}
	}
	got := collect(adj)
	if len(got) != 1 || len(got[0]) != n || got[0][0] != n-1 || got[0][n-1] != 0 {
		t.Fatalf("want one %d-vertex component popped from %d down to 0", n, n-1)
	}
}

// Package graph implements the bipartite vendor–fingerprint graph and the
// customization/sharing metrics of Section 4: fingerprint degree (how many
// vendors use a fingerprint, Table 2), degree of customization across
// vendors (DoC_vendor, Figure 2), degree of customization across devices
// within a vendor (DoC and DoC_device, Figure 2 / Figure 10), pairwise
// vendor Jaccard similarity (Table 4), and DOT export for the graph
// figures (Figures 1, 3, 4).
package graph

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// Bipartite is a bipartite graph between "left" nodes (vendors, devices,
// device types) and "right" nodes (fingerprints). Edges are unweighted;
// multiplicities are collapsed, matching the paper ("at least one device
// of the vendor uses the fingerprint").
type Bipartite struct {
	leftAdj  map[string]map[string]bool // left -> set of right
	rightAdj map[string]map[string]bool // right -> set of left
}

// New creates an empty bipartite graph.
func New() *Bipartite {
	return &Bipartite{
		leftAdj:  map[string]map[string]bool{},
		rightAdj: map[string]map[string]bool{},
	}
}

// AddEdge connects a left node to a right node.
func (g *Bipartite) AddEdge(left, right string) {
	if g.leftAdj[left] == nil {
		g.leftAdj[left] = map[string]bool{}
	}
	g.leftAdj[left][right] = true
	if g.rightAdj[right] == nil {
		g.rightAdj[right] = map[string]bool{}
	}
	g.rightAdj[right][left] = true
}

// AddLeft ensures a left node exists even without edges.
func (g *Bipartite) AddLeft(left string) {
	if g.leftAdj[left] == nil {
		g.leftAdj[left] = map[string]bool{}
	}
}

// Lefts returns the left node names, sorted.
func (g *Bipartite) Lefts() []string { return sortedKeys(g.leftAdj) }

// Rights returns the right node names, sorted.
func (g *Bipartite) Rights() []string { return sortedKeys(g.rightAdj) }

// NumLefts returns the number of left nodes.
func (g *Bipartite) NumLefts() int { return len(g.leftAdj) }

// NumRights returns the number of right nodes.
func (g *Bipartite) NumRights() int { return len(g.rightAdj) }

// NumEdges returns the number of distinct edges.
func (g *Bipartite) NumEdges() int {
	n := 0
	for _, set := range g.leftAdj {
		n += len(set)
	}
	return n
}

// RightDegree returns how many left nodes use the right node (for the
// vendor–fingerprint graph: the fingerprint's vendor degree of Table 2).
func (g *Bipartite) RightDegree(right string) int { return len(g.rightAdj[right]) }

// LeftNeighbors returns the right nodes adjacent to left, sorted.
func (g *Bipartite) LeftNeighbors(left string) []string { return sortedSet(g.leftAdj[left]) }

// RightNeighbors returns the left nodes adjacent to right, sorted.
func (g *Bipartite) RightNeighbors(right string) []string { return sortedSet(g.rightAdj[right]) }

// HasEdge reports whether the edge exists.
func (g *Bipartite) HasEdge(left, right string) bool { return g.leftAdj[left][right] }

func sortedKeys(m map[string]map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DegreeDistribution buckets right-node degrees as in Table 2:
// 1, 2, 3–5, >5. Returned as fractions of all right nodes.
type DegreeDistribution struct {
	Total    int
	Deg1     float64
	Deg2     float64
	Deg3to5  float64
	DegOver5 float64
}

// DegreeDistribution computes the Table 2 buckets over right nodes.
func (g *Bipartite) DegreeDistribution() DegreeDistribution {
	d := DegreeDistribution{Total: len(g.rightAdj)}
	if d.Total == 0 {
		return d
	}
	var c1, c2, c35, c5 int
	for _, lefts := range g.rightAdj {
		switch n := len(lefts); {
		case n == 1:
			c1++
		case n == 2:
			c2++
		case n <= 5:
			c35++
		default:
			c5++
		}
	}
	t := float64(d.Total)
	d.Deg1 = float64(c1) / t
	d.Deg2 = float64(c2) / t
	d.Deg3to5 = float64(c35) / t
	d.DegOver5 = float64(c5) / t
	return d
}

// DoC computes the degree of customization of one left node: the fraction
// of its adjacent right nodes used by no other left node. A left node with
// no edges has DoC 0 (nothing proposed, nothing customized).
func (g *Bipartite) DoC(left string) float64 {
	adj := g.leftAdj[left]
	if len(adj) == 0 {
		return 0
	}
	solely := 0
	for right := range adj {
		if len(g.rightAdj[right]) == 1 {
			solely++
		}
	}
	return float64(solely) / float64(len(adj))
}

// DoCAll returns the DoC of every left node.
func (g *Bipartite) DoCAll() map[string]float64 {
	out := make(map[string]float64, len(g.leftAdj))
	for left := range g.leftAdj {
		out[left] = g.DoC(left)
	}
	return out
}

// Jaccard returns the Jaccard similarity of two left nodes' right sets.
func (g *Bipartite) Jaccard(a, b string) float64 {
	sa, sb := g.leftAdj[a], g.leftAdj[b]
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for r := range sa {
		if sb[r] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// SimilarPair is one vendor tuple of Table 4.
type SimilarPair struct {
	A, B       string
	Similarity float64
}

// SimilarPairs returns all left-node pairs with Jaccard >= threshold,
// sorted by similarity descending then lexicographically. Right nodes
// are mapped to dense uint32 ids once, so the O(V^2) pair loop runs a
// merge-style Jaccard over integer slices — no string comparisons and
// no per-pair allocation. Id assignment order is irrelevant: Jaccard
// depends only on intersection and union cardinalities.
func (g *Bipartite) SimilarPairs(threshold float64) []SimilarPair {
	lefts := g.Lefts()
	rightID := make(map[string]uint32, len(g.rightAdj))
	adj := make([][]uint32, len(lefts))
	for i, l := range lefts {
		ns := make([]uint32, 0, len(g.leftAdj[l]))
		for r := range g.leftAdj[l] {
			id, ok := rightID[r]
			if !ok {
				id = uint32(len(rightID))
				rightID[r] = id
			}
			ns = append(ns, id)
		}
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		adj[i] = ns
	}
	var out []SimilarPair
	for i := 0; i < len(lefts); i++ {
		if len(adj[i]) == 0 {
			continue
		}
		for j := i + 1; j < len(lefts); j++ {
			if len(adj[j]) == 0 {
				continue
			}
			s := JaccardSorted(adj[i], adj[j])
			if s >= threshold {
				out = append(out, SimilarPair{A: lefts[i], B: lefts[j], Similarity: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// JaccardSorted computes the Jaccard similarity of two ascending,
// duplicate-free id sets by a single merge pass. Empty-vs-empty is 1,
// matching Jaccard.
func JaccardSorted[T cmp.Ordered](a, b []T) float64 {
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// CDF returns the empirical CDF of the values: sorted x values and the
// cumulative fraction at each (used for Figure 2).
func CDF(values []float64) (xs, ys []float64) {
	if len(values) == 0 {
		return nil, nil
	}
	xs = append([]float64(nil), values...)
	sort.Float64s(xs)
	ys = make([]float64, len(xs))
	for i := range xs {
		ys[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ys
}

// FractionAtMost returns the fraction of values <= x (reading a CDF).
func FractionAtMost(values []float64, x float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// DotOptions controls DOT export.
type DotOptions struct {
	// Name of the graph.
	Name string
	// RightColor assigns a fill color per right node (fingerprint
	// security coloring in Figure 1); nil means default.
	RightColor func(right string) string
	// RightSize assigns a node size per right node; nil means default.
	RightSize func(right string) float64
	// LeftLabel rewrites left node labels (vendor index numbers); nil
	// means identity.
	LeftLabel func(left string) string
}

// Dot renders the bipartite graph in Graphviz DOT form, left nodes as
// boxes and right nodes as colored circles — the rendering behind
// Figures 1, 3, and 4.
func (g *Bipartite) Dot(opts DotOptions) string {
	name := opts.Name
	if name == "" {
		name = "bipartite"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n  layout=neato;\n  overlap=false;\n", name)
	for _, left := range g.Lefts() {
		label := left
		if opts.LeftLabel != nil {
			label = opts.LeftLabel(left)
		}
		fmt.Fprintf(&b, "  %q [shape=box,label=%q];\n", "L:"+left, label)
	}
	for _, right := range g.Rights() {
		color := "#4878cf"
		if opts.RightColor != nil {
			color = opts.RightColor(right)
		}
		size := 0.15
		if opts.RightSize != nil {
			size = opts.RightSize(right)
		}
		fmt.Fprintf(&b, "  %q [shape=circle,label=\"\",style=filled,fillcolor=%q,width=%.2f];\n",
			"R:"+right, color, size)
	}
	for _, left := range g.Lefts() {
		for _, right := range g.LeftNeighbors(left) {
			fmt.Fprintf(&b, "  %q -- %q;\n", "L:"+left, "R:"+right)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ConnectedComponents returns the node sets of connected components
// (union of left and right nodes, prefixed "L:"/"R:"), largest first.
func (g *Bipartite) ConnectedComponents() [][]string {
	visited := map[string]bool{}
	var comps [][]string
	var stack []string
	for _, left := range g.Lefts() {
		start := "L:" + left
		if visited[start] {
			continue
		}
		var comp []string
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			node := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, node)
			var neighbors []string
			if strings.HasPrefix(node, "L:") {
				for _, r := range g.LeftNeighbors(node[2:]) {
					neighbors = append(neighbors, "R:"+r)
				}
			} else {
				for _, l := range g.RightNeighbors(node[2:]) {
					neighbors = append(neighbors, "L:"+l)
				}
			}
			for _, nb := range neighbors {
				if !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

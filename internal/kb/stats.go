package kb

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a knowledge graph — the per-KB numbers reported
// when loading Yago/DBpedia-style builds (instance/class/relationship
// counts, taxonomy depth, degree distribution).
type Stats struct {
	Instances  int
	Literals   int
	Classes    int
	Predicates int
	Triples    int
	// TypeAssertions counts instance-class memberships (direct only).
	TypeAssertions int
	// SubclassAssertions counts direct subclass edges.
	SubclassAssertions int
	// MaxTaxonomyDepth is the longest superclass chain.
	MaxTaxonomyDepth int
	// AvgOutDegree is the mean number of outgoing edges per subject.
	AvgOutDegree float64
	// LargestClasses lists the biggest class extents, descending.
	LargestClasses []ClassSize
}

// ClassSize pairs a class name with its (transitive) extent size.
type ClassSize struct {
	Class string
	Size  int
}

// ComputeStats walks the graph once and returns its statistics. topN
// bounds LargestClasses (0 = none).
func (g *Graph) ComputeStats(topN int) Stats {
	s := Stats{
		Predicates: g.NumPredicates(),
		Triples:    g.NumTriples(),
	}
	for id, k := range g.kinds {
		switch k {
		case KindInstance:
			s.Instances++
		case KindLiteral:
			s.Literals++
		case KindClass:
			if ID(id) != g.literalClass {
				s.Classes++
			}
		}
	}
	g.forEachTyped(func(_ ID, classes []ID) {
		s.TypeAssertions += len(classes)
	})
	subjects := 0
	for i := 0; i < g.NumNodes(); i++ {
		if len(g.out.view(ID(i))) > 0 {
			subjects++
		}
	}
	if subjects > 0 {
		s.AvgOutDegree = float64(g.tripleCount) / float64(subjects)
	}
	var classes []ID
	for id, k := range g.kinds {
		if k == KindClass && ID(id) != g.literalClass {
			classes = append(classes, ID(id))
		}
	}
	for _, c := range classes {
		s.SubclassAssertions += len(g.directSupers(c))
		if d := g.TaxonomyDepth(c); d > s.MaxTaxonomyDepth {
			s.MaxTaxonomyDepth = d
		}
	}
	if topN > 0 {
		sizes := make([]ClassSize, 0, len(classes))
		for _, c := range classes {
			sizes = append(sizes, ClassSize{Class: g.Name(c), Size: len(g.InstancesOf(c))})
		}
		sort.Slice(sizes, func(i, j int) bool {
			if sizes[i].Size != sizes[j].Size {
				return sizes[i].Size > sizes[j].Size
			}
			return sizes[i].Class < sizes[j].Class
		})
		if len(sizes) > topN {
			sizes = sizes[:topN]
		}
		s.LargestClasses = sizes
	}
	return s
}

// String renders the statistics for humans.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instances=%d literals=%d classes=%d predicates=%d triples=%d types=%d subclasses=%d depth=%d avg-out=%.1f",
		s.Instances, s.Literals, s.Classes, s.Predicates, s.Triples,
		s.TypeAssertions, s.SubclassAssertions, s.MaxTaxonomyDepth, s.AvgOutDegree)
	if len(s.LargestClasses) > 0 {
		b.WriteString(" largest=")
		for i, c := range s.LargestClasses {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%s:%d", c.Class, c.Size)
		}
	}
	return b.String()
}

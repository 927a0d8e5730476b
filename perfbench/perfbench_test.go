package main

import (
	"math"
	"testing"

	"thor/internal/datagen"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},      // rank 10, ten samples beyond
		{100, 90},     // rank 90, ten beyond; p95 has five
		{200, 95},     // rank 190, ten beyond
		{999, 95},     // p99 rank 990 leaves nine
		{1000, 99},    // p99 rank 990 leaves ten
		{9999, 99},    // p99.9 rank 9990 leaves nine
		{10000, 99.9}, // p99.9 rank 9990 leaves ten
	} {
		if got := highestSupported(tc.n, tailCandidates); got != tc.want {
			t.Errorf("highestSupported(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestNovelDocsDistinctAndDeterministic(t *testing.T) {
	ds := datagen.Disease(7)
	nc := len(corpus(ds))
	n := nc + 700 // past the corpus, into derived documents
	docs := novelDocs(ds, 7, n)
	if len(docs) != n {
		t.Fatalf("got %d documents, want %d", len(docs), n)
	}
	seen := map[string]bool{}
	seenSent := map[string]bool{}
	for i, d := range docs {
		if seen[d.Text] {
			t.Fatalf("body of %s repeats an earlier document", d.Name)
		}
		seen[d.Text] = true
		for _, s := range docSentences(d.Text) {
			if i >= nc && seenSent[s] {
				t.Fatalf("derived document %s repeats the sentence %q", d.Name, s)
			}
			seenSent[s] = true
		}
	}
	again := novelDocs(ds, 7, n)
	for i := range docs {
		if docs[i] != again[i] {
			t.Fatalf("document %d differs between two runs with the same seed", i)
		}
	}
	other := novelDocs(ds, 8, n)
	same := 0
	for i := range docs {
		if docs[i] == other[i] {
			same++
		}
	}
	if same == n {
		t.Error("seeds 7 and 8 produced the same document sequence")
	}
}

func TestWriteGenNeverNoOp(t *testing.T) {
	// serve-mutate's table, and well past the point where the vocabulary
	// runs dry and the generator derives values.
	ds := datagen.Disease(3)
	table := ds.Table.Clone()
	g := newWriteGen(ds, table, 3)
	for i := 0; i < 1500; i++ {
		u := g.next()
		if len(u.Cells) != 1 {
			t.Fatalf("write %d touches %d concepts, want 1", i, len(u.Cells))
		}
		for c := range u.Cells {
			before := table.ConceptFingerprint(c)
			if !apply(table, u) {
				t.Fatalf("write %d (%+v) is a no-op on its row", i, u)
			}
			if table.ConceptFingerprint(c) == before {
				t.Fatalf("write %d (%+v) leaves concept %s's instance set unchanged", i, u, c)
			}
		}
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 10}
	for _, tc := range []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", []span{{Start: 1, End: 2}, {Start: 4, End: 6}}, 7},
		{"overlapping", []span{{Start: 1, End: 3}, {Start: 2, End: 5}}, 6},
		{"nested", []span{{Start: 1, End: 8}, {Start: 2, End: 3}}, 3},
		{"clipped to parent", []span{{Start: -2, End: 0.5}, {Start: 8, End: 12}}, 7.5},
		{"outside parent", []span{{Start: 11, End: 12}}, 10},
		{"mixed", []span{{Start: 1, End: 3}, {Start: 2, End: 5}, {Start: 8, End: 12}, {Start: -2, End: 0.5}}, 3.5},
	} {
		if got := selfTime(parent, tc.children); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBuildTreesLinksLayers(t *testing.T) {
	const trace = "0123456789abcdef0123456789abcdef"
	spans := []span{
		{Trace: trace, Name: spanServe, Start: 2, End: 9},
		{Trace: trace, Name: spanClientFill, Start: 0, End: 11},
		{Trace: trace, Name: spanRouter, Start: 1, End: 10},
	}
	timings := map[string]fillTimings{trace: {queueMS: 2, runMS: 3, stages: []stageTiming{{"segment", 1}, {"match", 1.5}}}}
	trees := buildTrees(spans, timings)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.router == nil || tr.router.Parent != tr.client.ID || tr.handlers[0].Parent != tr.router.ID {
		t.Fatalf("layers not linked client → router → serve: %+v", tr)
	}
	h := tr.answering()
	if got := selfTime(*h, tr.children(h.ID)); math.Abs(got-2) > 1e-9 {
		t.Errorf("serve self = %v, want 7 - 2 (queue) - 3 (run) = 2", got)
	}
	if got := selfTime(*tr.router, tr.handlers); math.Abs(got-2) > 1e-9 {
		t.Errorf("router hop self = %v, want 9 - 7 = 2", got)
	}
	if got := selfTime(tr.client, []span{*tr.outermost()}); math.Abs(got-2) > 1e-9 {
		t.Errorf("client overhead = %v, want 11 - 9 = 2", got)
	}
	var run span
	for _, s := range tr.derived {
		if s.Name == spanRun {
			run = s
		}
	}
	if got := selfTime(run, tr.children(run.ID)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("run self = %v, want 3 - 2.5 (stages) = 0.5", got)
	}
}

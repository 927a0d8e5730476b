package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"thor/internal/datagen"
	"thor/internal/schema"
	"thor/internal/segment"
	"thor/internal/serve"
	"thor/internal/tablestore"
	"thor/internal/text"
)

// inputs is everything a workload sends, generated from the seed before
// anything is timed. The engine receives the table and space only as
// THORTBL1/THORVEC1 bytes; the in-memory originals are kept for the output
// check, so a decoding fault cannot hide in both sides at once.
type inputs struct {
	ds *datagen.Dataset
	// served is the table the engine fills (and mutates, on writes).
	served *schema.Table
	// knowledge is the separate fine-tuning table, nil when the served
	// table is itself the knowledge.
	knowledge *schema.Table

	spaceBytes     []byte
	servedBytes    []byte
	knowledgeBytes []byte

	// docs are the fill documents in send order, bodies their encoded
	// single-document /v1/fill requests.
	docs   []segment.Document
	bodies [][]byte
}

// encodeInputs serializes the dataset's space and tables and pre-encodes
// one request body per document.
func encodeInputs(in *inputs) error {
	var b bytes.Buffer
	if _, err := in.ds.Space.WriteTo(&b); err != nil {
		return fmt.Errorf("encode space: %w", err)
	}
	in.spaceBytes = append([]byte(nil), b.Bytes()...)
	b.Reset()
	if _, err := tablestore.WriteTable(&b, 1, in.served); err != nil {
		return fmt.Errorf("encode served table: %w", err)
	}
	in.servedBytes = append([]byte(nil), b.Bytes()...)
	if in.knowledge != nil {
		b.Reset()
		if _, err := tablestore.WriteTable(&b, 1, in.knowledge); err != nil {
			return fmt.Errorf("encode knowledge table: %w", err)
		}
		in.knowledgeBytes = append([]byte(nil), b.Bytes()...)
	}
	in.bodies = make([][]byte, len(in.docs))
	for i, d := range in.docs {
		body, err := json.Marshal(serve.Request{Documents: []serve.Document{{
			Name: d.Name, DefaultSubject: d.DefaultSubject, Text: d.Text,
		}}})
		if err != nil {
			return err
		}
		in.bodies[i] = body
	}
	return nil
}

// clearedTable is a table over ds's schema with one row, all non-subject
// cells null, for each of the given subjects.
func clearedTable(ds *datagen.Dataset, subjects ...[]string) *schema.Table {
	t := schema.NewTable(ds.Table.Schema)
	for _, group := range subjects {
		for _, s := range group {
			if t.Row(s) == nil {
				t.AddRow(s)
			}
		}
	}
	return t
}

// corpus returns the documents of all three splits.
func corpus(ds *datagen.Dataset) []segment.Document {
	var out []segment.Document
	out = append(out, ds.Train.Docs...)
	out = append(out, ds.Valid.Docs...)
	return append(out, ds.Test.Docs...)
}

// novelDocs returns n documents no two of which share a body: first the
// corpus in seeded order, then documents derived from it. A derived
// document is a seeded permutation of one corpus document's sentences, each
// given a study number (", in study 48213.") that makes it a sentence no
// earlier document holds. So every derived sentence misses the engine's
// sentence-level parse cache as well as its document cache, and tagging,
// parsing and extraction run for it, as they would for fresh pages about
// known subjects.
func novelDocs(ds *datagen.Dataset, seed int64, n int) []segment.Document {
	rng := rand.New(rand.NewSource(seed ^ 0x6e6f76656c))
	base := corpus(ds)
	seenBody := make(map[uint64]bool, n)
	out := make([]segment.Document, 0, n)
	for _, i := range rng.Perm(len(base)) {
		if len(out) == n {
			return out
		}
		d := base[i]
		if seenBody[bodyHash(d.Text)] {
			continue // the generator's contract is distinct bodies, even if the corpus repeats one
		}
		seenBody[bodyHash(d.Text)] = true
		out = append(out, d)
	}
	sentences := make([][]string, len(base))
	seenSent := map[string]bool{}
	for i, d := range base {
		sentences[i] = docSentences(d.Text)
		for _, s := range sentences[i] {
			seenSent[s] = true
		}
	}
	study := 10000 + rng.Intn(80000)
	for k := 0; len(out) < n; k++ {
		i := rng.Intn(len(base))
		if len(sentences[i]) < 2 {
			continue
		}
		perm := rng.Perm(len(sentences[i]))
		parts := make([]string, len(perm))
		for j, p := range perm {
			for {
				study++
				if s := inStudy(sentences[i][p], study); !seenSent[s] {
					seenSent[s] = true
					parts[j] = s
					break
				}
			}
		}
		out = append(out, segment.Document{
			Name:           fmt.Sprintf("derived-%d-%s", k, base[i].Name),
			DefaultSubject: base[i].DefaultSubject,
			Text:           strings.Join(parts, " "),
		})
	}
	return out
}

// docSentences splits a document body into its trimmed sentences.
func docSentences(body string) []string {
	var out []string
	for _, s := range text.SplitSentences(body) {
		out = append(out, strings.TrimSpace(body[s.Start:s.End]))
	}
	return out
}

// inStudy inserts ", in study <n>" before a sentence's closing punctuation.
func inStudy(sentence string, n int) string {
	body, end := sentence, ""
	if k := len(sentence) - 1; k >= 0 && strings.ContainsRune(".!?", rune(sentence[k])) {
		body, end = sentence[:k], sentence[k:]
	}
	return fmt.Sprintf("%s, in study %d%s", body, n, end)
}

func bodyHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// writeGen generates table appends, each adding a value its concept's column
// does not hold yet, so every write changes that concept's instance set and
// none is a no-op. Concepts rotate in schema order so every run spreads its
// writes evenly over them whatever the seed; the row and value are seeded.
type writeGen struct {
	rng      *rand.Rand
	subjects []string
	concepts []schema.Concept
	// pools are each concept's vocabulary values not in the column, in
	// seeded order; vocab is the whole vocabulary, the stem for values
	// derived once a pool runs dry.
	pools  map[schema.Concept][]string
	vocab  map[schema.Concept][]string
	column map[schema.Concept]map[string]bool
	n      int
}

func newWriteGen(ds *datagen.Dataset, table *schema.Table, seed int64) *writeGen {
	g := &writeGen{
		rng:      rand.New(rand.NewSource(seed ^ 0x7772697465)),
		subjects: table.Subjects(),
		concepts: table.Schema.NonSubject(),
		pools:    map[schema.Concept][]string{},
		vocab:    map[schema.Concept][]string{},
		column:   map[schema.Concept]map[string]bool{},
	}
	for _, c := range g.concepts {
		col := map[string]bool{}
		for _, v := range table.ColumnValues(c) {
			col[strings.ToLower(v)] = true
		}
		g.column[c] = col
		vocab := append([]string(nil), ds.Vocab[c]...)
		g.rng.Shuffle(len(vocab), func(i, j int) { vocab[i], vocab[j] = vocab[j], vocab[i] })
		g.vocab[c] = vocab
		for _, v := range vocab {
			if !col[strings.ToLower(v)] {
				g.pools[c] = append(g.pools[c], v)
			}
		}
	}
	return g
}

// next returns the next append: one value for one row.
func (g *writeGen) next() tablestore.RowUpdate {
	c := g.concepts[g.n%len(g.concepts)]
	g.n++
	subject := g.subjects[g.rng.Intn(len(g.subjects))]
	var v string
	for k := 0; ; k++ {
		if pool := g.pools[c]; len(pool) > 0 {
			v, g.pools[c] = pool[0], pool[1:]
		} else {
			stems := g.vocab[c]
			v = fmt.Sprintf("%s type %d", stems[g.rng.Intn(len(stems))], 2+g.rng.Intn(9)+k)
		}
		if !g.column[c][strings.ToLower(v)] {
			break
		}
	}
	g.column[c][strings.ToLower(v)] = true
	return tablestore.RowUpdate{Subject: subject, Cells: map[schema.Concept][]string{c: {v}}}
}

// apply adds u to t (the benchmark's own copy of the served table) and
// reports whether every value was new to its row.
func apply(t *schema.Table, u tablestore.RowUpdate) bool {
	row := t.Row(u.Subject)
	if row == nil {
		row = t.AddRow(u.Subject)
	}
	changed := true
	for c, vs := range u.Cells {
		for _, v := range vs {
			changed = row.Add(c, v) && changed
		}
	}
	return changed
}

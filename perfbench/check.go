package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"

	"thor/internal/embed"
	"thor/internal/schema"
	"thor/internal/segment"
	"thor/internal/serve"
	"thor/internal/thor"
)

// reference computes what a fill must return by running Algorithm 1
// in-process (thor.New + Pipeline.Run, no shared caches, then thor.Fill on
// a clone) over the benchmark's own copy of the table version the response
// names.
type reference struct {
	space     *embed.Space
	knowledge *schema.Table
	pipes     map[uint64]*thor.Pipeline
	tables    map[uint64]*schema.Table
}

func newReference(space *embed.Space, knowledge *schema.Table) *reference {
	return &reference{
		space:     space,
		knowledge: knowledge,
		pipes:     map[uint64]*thor.Pipeline{},
		tables:    map[uint64]*schema.Table{},
	}
}

// addVersion registers the benchmark's copy of a table version.
func (r *reference) addVersion(v uint64, t *schema.Table) { r.tables[v] = t }

// verify decodes a /v1/fill body and compares it with the reference run of
// doc on the table version the body reports.
func (r *reference) verify(doc segment.Document, body []byte) error {
	var got serve.Response
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	table := r.tables[got.Stats.TableVersion]
	if table == nil {
		return fmt.Errorf("response names table version %d, which the benchmark has no copy of", got.Stats.TableVersion)
	}
	p := r.pipes[got.Stats.TableVersion]
	if p == nil {
		var err error
		if p, err = thor.New(table, r.space, thor.Config{Tau: tau, Knowledge: r.knowledge}); err != nil {
			return fmt.Errorf("reference pipeline: %w", err)
		}
		r.pipes[got.Stats.TableVersion] = p
	}
	res, err := p.Run([]segment.Document{doc})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	want := wireEntities(res.Entities)
	if len(want) != 0 || len(got.Entities) != 0 {
		if !reflect.DeepEqual(got.Entities, want) {
			return fmt.Errorf("doc %s v%d: entities differ from the reference run", doc.Name, got.Stats.TableVersion)
		}
	}
	asg := thor.Fill(table.Clone(), res.Entities)
	if (len(asg) != 0 || len(got.Assignments) != 0) && !reflect.DeepEqual(got.Assignments, asg) {
		return fmt.Errorf("doc %s v%d: assignments differ from the reference run", doc.Name, got.Stats.TableVersion)
	}
	st := got.Stats
	if st.Completed != 1 || st.Sentences != res.Stats.Sentences || st.Phrases != res.Stats.Phrases ||
		st.Candidates != res.Stats.Candidates || st.Entities != res.Stats.Entities || st.Filled != len(asg) {
		return fmt.Errorf("doc %s v%d: counters differ from the reference run", doc.Name, got.Stats.TableVersion)
	}
	return nil
}

// wireEntities is the /v1/fill wire form of a per-subject entity map.
func wireEntities(m map[string][]thor.Entity) map[string][]serve.Entity {
	out := make(map[string][]serve.Entity, len(m))
	for subj, es := range m {
		ws := make([]serve.Entity, len(es))
		for i, e := range es {
			ws[i] = serve.Entity{
				Phrase: e.Phrase, Concept: string(e.Concept), Doc: e.Doc, Matched: e.Matched,
				Score: e.Score, Semantic: e.ScoreS, Jaccard: e.ScoreW, Gestalt: e.ScoreC,
			}
		}
		out[subj] = ws
	}
	return out
}

// statsKey precedes the last member of a /v1/fill body; everything before it
// (entities and assignments) is a deterministic function of the document
// and the table version.
var statsKey = []byte(`,"stats":`)

// outputHash hashes the part of a /v1/fill body before its stats, or
// returns false if the body has none.
func outputHash(body []byte) (uint64, bool) {
	i := bytes.LastIndex(body, statsKey)
	if i < 0 {
		return 0, false
	}
	h := fnv.New64a()
	h.Write(body[:i])
	return h.Sum64(), true
}

// replayCheck verifies every response of a replay phase: each body's output
// must hash like the warm-up response for the same document, which the
// reference verified in full.
type replayCheck struct {
	want []uint64
}

func (c *replayCheck) check(doc int, body []byte) bool {
	h, ok := outputHash(body)
	return ok && h == c.want[doc]
}

// checkWrites confirms each acknowledged write against the benchmark's own
// copy of the table: the write produced exactly the next version, added one
// value, invalidated exactly its concept, and GET /v1/table's per-concept
// fingerprints right after it equal the copy's. Every version the writes
// produced whose number is in keep is registered with ref. It returns how
// many writes failed these checks and the first failure.
func checkWrites(base *schema.Table, first uint64, recs []writeRecord, ref *reference, keep map[uint64]bool) (int, error) {
	own := base.Clone()
	want := first
	bad := 0
	var firstErr error
	for _, rec := range recs {
		want++
		if err := checkWrite(own, rec, want); err != nil {
			bad++
			if firstErr == nil {
				firstErr = err
			}
		}
		if keep[want] {
			ref.addVersion(want, own.Clone())
		}
	}
	return bad, firstErr
}

// checkWrite applies one acknowledged write to own and checks it produced
// version want.
func checkWrite(own *schema.Table, rec writeRecord, want uint64) error {
	if !apply(own, rec.update) {
		return fmt.Errorf("write %d: append is a no-op on the benchmark's copy", want)
	}
	var concept schema.Concept
	for c := range rec.update.Cells {
		concept = c
	}
	r := rec.result
	if r.Version != want || r.Previous != want-1 || r.ValuesAdded != 1 ||
		len(r.Invalidated) != 1 || r.Invalidated[0] != concept {
		return fmt.Errorf("write %d: unexpected result %+v", want, r)
	}
	return sameFingerprints(own, rec.info, want)
}

// sameFingerprints compares a table copy with what GET /v1/table reported.
func sameFingerprints(t *schema.Table, info serve.TableInfo, version uint64) error {
	if info.Version != version {
		return fmt.Errorf("GET /v1/table reports version %d, want %d", info.Version, version)
	}
	fps := t.ConceptFingerprints()
	if len(fps) != len(info.Concepts) {
		return fmt.Errorf("v%d: %d concept fingerprints, want %d", version, len(info.Concepts), len(fps))
	}
	for c, fp := range fps {
		if info.Concepts[string(c)] != fmt.Sprintf("%016x", fp) {
			return fmt.Errorf("v%d: concept %s fingerprint differs from the benchmark's copy", version, c)
		}
	}
	return nil
}

// statsOf reads the stats of a /v1/fill body.
func statsOf(body []byte) (serve.Stats, bool) {
	var r struct {
		Stats serve.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return serve.Stats{}, false
	}
	return r.Stats, true
}

// sentenceHitShare is the share of attributed sentences the engine's
// sentence-level parse cache answered. Every attributed sentence the
// pipeline analyzes counts one phrase_extract call; only a cache miss also
// counts a pos_tag call. It reports false when no sentence was analyzed
// (every document answered from the document cache).
func sentenceHitShare(stats []serve.Stats) (float64, bool) {
	var extract, tagged int64
	for _, st := range stats {
		for _, sc := range st.Stages {
			switch sc.Stage {
			case "phrase_extract":
				extract += sc.Calls
			case "pos_tag":
				tagged += sc.Calls
			}
		}
	}
	if extract == 0 {
		return 0, false
	}
	return float64(extract-tagged) / float64(extract), true
}

// tableVersionOf reads stats.table_version from a /v1/fill body (0 if the
// body does not parse).
func tableVersionOf(body []byte) uint64 {
	var r struct {
		Stats struct {
			TableVersion uint64 `json:"table_version"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0
	}
	return r.Stats.TableVersion
}

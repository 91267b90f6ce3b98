package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/bench/experiments"
	"sqlgraph/internal/bench/queries"
	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
)

// loadDBpedia generates the medium-scale DBpedia-shaped graph from seed,
// loads it into an in-memory store and serves it.
func loadDBpedia(seed int64) (*env, *dbpedia.Dataset, error) {
	cfg := experiments.DBpediaConfig(experiments.ScaleMedium)
	cfg.Seed = seed
	d, err := dbpedia.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	store, err := core.Load(d.Graph, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	e, err := startStack(store, "")
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	e.sizes = map[string]int{"vertices": d.NumVertices, "edges": d.NumEdges}
	return e, d, nil
}

// graphUserBytes counts a graph's user data: 8 bytes per id (a vertex id;
// an edge's id and both end points), the labels, and each element's
// attributes as JSON.
func graphUserBytes(g *blueprints.MemGraph) (int64, error) {
	var n int64
	attrBytes := func(attrs map[string]any) error {
		if len(attrs) == 0 {
			return nil
		}
		b, err := json.Marshal(attrs)
		n += int64(len(b))
		return err
	}
	for _, v := range g.VertexIDs() {
		attrs, err := g.VertexAttrs(v)
		if err != nil {
			return 0, err
		}
		n += 8
		if err := attrBytes(attrs); err != nil {
			return 0, err
		}
	}
	for _, id := range g.EdgeIDs() {
		rec, err := g.Edge(id)
		if err != nil {
			return 0, err
		}
		attrs, err := g.EdgeAttrs(id)
		if err != nil {
			return 0, err
		}
		n += 24 + int64(len(rec.Label))
		if err := attrBytes(attrs); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// queryBody is a POST /query request body.
func queryBody(gremlin string) []byte {
	b, _ := json.Marshal(map[string]string{"gremlin": gremlin}) // a string map always marshals
	return b
}

// queryCount decodes the single value of a count() query's answer.
func queryCount(body []byte) (int64, error) {
	var resp struct {
		Values []json.Number `json:"values"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return 0, err
	}
	if len(resp.Values) != 1 {
		return 0, fmt.Errorf("count query answered %d values", len(resp.Values))
	}
	return resp.Values[0].Int64()
}

// ---- dbpedia_analytic ---------------------------------------------------

// setupAnalytic serves the DBpedia graph to a stream of the 20 Figure 5
// queries and the 6 order/group queries. Each client draws a round of
// them in seeded random order, a fresh permutation per round, so every
// query has the same share of every run and the latency percentiles do
// not shift with how often the slow ones happened to be drawn.
//
// A round holds every query once and q01 twice. q01's latency is the
// 13th of the 26, so in a round of 27 the median operation falls inside
// q01's latencies instead of on the gap between the 13th and 14th query,
// where it would flip with small shifts in machine speed.
func setupAnalytic(seed int64, _ string) (*env, error) {
	e, d, err := loadDBpedia(seed)
	if err != nil {
		return nil, err
	}
	var texts, names []string
	for i, q := range queries.BenchmarkQueries(d) {
		texts = append(texts, q)
		names = append(names, fmt.Sprintf("q%02d", i+1))
	}
	for i, q := range queries.OrderGroupQueries(d) {
		texts = append(texts, q)
		names = append(names, fmt.Sprintf("og%d", i+1))
	}
	answers := make([]int64, len(texts))
	e.sizes["queries"] = len(texts)
	e.prepare = func() error {
		var err error
		if e.userBytes, err = graphUserBytes(d.Graph); err != nil {
			return err
		}
		// The oracle: each query's answer, computed once by the store.
		for i, q := range texts {
			res, err := e.store.Query(q)
			if err != nil {
				return fmt.Errorf("%s: %w", names[i], err)
			}
			if len(res.Values) != 1 {
				return fmt.Errorf("%s answered %d values", names[i], len(res.Values))
			}
			n, ok := res.Values[0].(int64)
			if !ok {
				return fmt.Errorf("%s answered %T", names[i], res.Values[0])
			}
			answers[i] = n
		}
		return nil
	}
	reqs := make([]request, len(texts))
	round := make([]int, len(texts), len(texts)+1)
	for i := range texts {
		reqs[i] = request{kind: kindQuery, method: "POST", path: "/query",
			body: queryBody(texts[i]), gremlin: texts[i], qname: names[i]}
		round[i] = i
	}
	round = append(round, 0) // q01 again
	e.newClient = func(c int) client {
		return &analyticClient{rng: rand.New(rand.NewSource(streamSeed(seed, c))), reqs: reqs, round: round, answers: answers}
	}
	return e, nil
}

// streamSeed derives client c's request-stream seed from the run's seed.
func streamSeed(seed int64, c int) int64 { return seed*1_000_003 + int64(c)*7919 + 17 }

type analyticClient struct {
	rng     *rand.Rand
	reqs    []request
	round   []int // the indexes into reqs of one round
	answers []int64
	order   []int // this round's permutation of round, consumed from the front
	last    int
}

func (a *analyticClient) next() *request {
	if len(a.order) == 0 {
		a.order = a.rng.Perm(len(a.round))
	}
	a.last, a.order = a.round[a.order[0]], a.order[1:]
	return &a.reqs[a.last]
}

func (a *analyticClient) done(status int, body []byte) error {
	if status/100 != 2 {
		return nil
	}
	n, err := queryCount(body)
	if err != nil {
		return fmt.Errorf("%s: %w", a.reqs[a.last].qname, err)
	}
	if n != a.answers[a.last] {
		return fmt.Errorf("%s answered %d, want %d", a.reqs[a.last].qname, n, a.answers[a.last])
	}
	return nil
}

// ---- dbpedia_point ------------------------------------------------------

// pointTemplates are the 1–2 hop query templates of dbpedia_point, each
// on a uniformly drawn vertex id.
var pointTemplates = []struct{ name, format string }{
	{"out", "g.V(%d).out.count()"},
	{"both_team", "g.V(%d).both('" + dbpedia.LabelTeam + "').dedup().count()"},
	{"in_has_label", "g.V(%d).in.has('label').count()"},
}

// pointOracle holds, per vertex, the answers of the point workload, taken
// from the generator's graph.
type pointOracle struct {
	answers map[int64][3]int64 // per template; the first is the out-degree
}

func buildPointOracle(g *blueprints.MemGraph) (*pointOracle, error) {
	o := &pointOracle{answers: map[int64][3]int64{}}
	for _, v := range g.VertexIDs() {
		out, err := g.OutEdges(v)
		if err != nil {
			return nil, err
		}
		in, err := g.InEdges(v)
		if err != nil {
			return nil, err
		}
		team := map[int64]bool{}
		for _, r := range out {
			if r.Label == dbpedia.LabelTeam {
				team[r.In] = true
			}
		}
		var labelled int64
		for _, r := range in {
			if r.Label == dbpedia.LabelTeam {
				team[r.Out] = true
			}
			attrs, err := g.VertexAttrs(r.Out)
			if err != nil {
				return nil, err
			}
			if _, ok := attrs["label"]; ok {
				labelled++
			}
		}
		o.answers[v] = [3]int64{int64(len(out)), int64(len(team)), labelled}
	}
	return o, nil
}

// setupPoint serves the DBpedia graph to a mix of 60% one- and two-hop
// queries on random vertices, 24% GET /vertex/{id} and 16%
// GET /vertex/{id}/out. The queries are the slowest operations, so with
// more than half of them the median operation falls inside the query
// latencies, not on the gap between the point reads and the queries.
func setupPoint(seed int64, _ string) (*env, error) {
	e, d, err := loadDBpedia(seed)
	if err != nil {
		return nil, err
	}
	vids := d.Graph.VertexIDs()
	var oracle *pointOracle
	e.prepare = func() error {
		var err error
		if e.userBytes, err = graphUserBytes(d.Graph); err != nil {
			return err
		}
		oracle, err = buildPointOracle(d.Graph)
		return err
	}
	e.newClient = func(c int) client {
		return &pointClient{rng: rand.New(rand.NewSource(streamSeed(seed, c))), vids: vids, oracle: oracle}
	}
	return e, nil
}

type pointClient struct {
	rng    *rand.Rand
	vids   []int64
	oracle *pointOracle
	req    request
	tmpl   int
}

func (p *pointClient) next() *request {
	id := p.vids[p.rng.Intn(len(p.vids))]
	ids := strconv.FormatInt(id, 10)
	switch r := p.rng.Intn(100); {
	case r < 60:
		p.tmpl = p.rng.Intn(len(pointTemplates))
		t := pointTemplates[p.tmpl]
		q := fmt.Sprintf(t.format, id)
		p.req = request{kind: kindQuery, method: "POST", path: "/query", body: queryBody(q),
			gremlin: q, qname: t.name, id: id}
	case r < 84:
		p.req = request{kind: kindVertex, method: "GET", path: "/vertex/" + ids, id: id}
	default:
		p.req = request{kind: kindOut, method: "GET", path: "/vertex/" + ids + "/out", id: id}
	}
	return &p.req
}

func (p *pointClient) done(status int, body []byte) error {
	if status/100 != 2 {
		return nil
	}
	switch p.req.kind {
	case kindQuery:
		n, err := queryCount(body)
		if err != nil {
			return fmt.Errorf("%s: %w", p.req.gremlin, err)
		}
		if want := p.oracle.answers[p.req.id][p.tmpl]; n != want {
			return fmt.Errorf("%s answered %d, want %d", p.req.gremlin, n, want)
		}
	case kindVertex:
		var v struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("%s: %w", p.req.path, err)
		}
		if v.ID != p.req.id {
			return fmt.Errorf("%s answered vertex %d", p.req.path, v.ID)
		}
	case kindOut:
		var l struct {
			Count int64 `json:"count"`
		}
		if err := json.Unmarshal(body, &l); err != nil {
			return fmt.Errorf("%s: %w", p.req.path, err)
		}
		if want := p.oracle.answers[p.req.id][0]; l.Count != want {
			return fmt.Errorf("%s counted %d edges, want %d", p.req.path, l.Count, want)
		}
	}
	return nil
}

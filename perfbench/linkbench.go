package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"sqlgraph/internal/bench/linkbench"
	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
)

// lbObjects is the number of objects bulk-loaded for the LinkBench
// workloads.
const lbObjects = 10_000

// lbVariant is a LinkBench workload: its share of writes and its
// checkpoint cadence.
type lbVariant struct {
	// writeShare is the share of operations that write. The reads keep
	// their relative Table 6 shares, and so do the writes. 0 keeps
	// Table 6 as it is (31% writes).
	writeShare float64
	// snapshotEvery is core.Options.SnapshotEvery; 0 is sqlgraphd's
	// default, a checkpoint every 4,096 mutations.
	snapshotEvery int
}

// lbWrites are the Table 6 operations that mutate.
var lbWrites = map[string]bool{
	linkbench.OpAddNode: true, linkbench.OpUpdateNode: true, linkbench.OpDeleteNode: true,
	linkbench.OpAddLink: true, linkbench.OpDeleteLink: true, linkbench.OpUpdateLink: true,
}

// lbShared is what the clients of a LinkBench workload share, read-only:
// the loaded id ranges, the association labels and the operation mix.
type lbShared struct {
	objects int64    // object ids are 0..objects-1; none is ever deleted
	links   int64    // link ids are 0..links-1 after the load
	labels  []string // association types
	cum     []float64
	total   float64
}

// mixShares returns the share of each linkbench.PaperMix operation under
// v.
func (v lbVariant) mixShares() []float64 {
	var writes, reads float64
	for _, m := range linkbench.PaperMix {
		if lbWrites[m.Op] {
			writes += m.Share
		} else {
			reads += m.Share
		}
	}
	shares := make([]float64, len(linkbench.PaperMix))
	for i, m := range linkbench.PaperMix {
		switch {
		case v.writeShare == 0:
			shares[i] = m.Share
		case lbWrites[m.Op]:
			shares[i] = m.Share / writes * v.writeShare
		default:
			shares[i] = m.Share / reads * (1 - v.writeShare)
		}
	}
	return shares
}

// setupLinkBench returns the set-up of a LinkBench workload. It bulk-loads
// the LinkBench graph into a durable store in a fresh directory under
// tmp, with sqlgraphd's durability defaults apart from v's checkpoint
// cadence: a synchronous WAL, with no group-commit window.
func setupLinkBench(v lbVariant) func(seed int64, tmp string) (*env, error) {
	return func(seed int64, tmp string) (*env, error) {
		g := blueprints.NewMemGraph()
		if _, err := linkbench.Generate(linkbench.Config{Objects: lbObjects, Seed: seed}, g); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmp, "linkbench-")
		if err != nil {
			return nil, err
		}
		store, err := core.Load(g, core.Options{Dir: dir, SnapshotEvery: v.snapshotEvery})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		e, err := startStack(store, dir)
		if err != nil {
			store.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		sh := &lbShared{objects: int64(g.CountVertices()), links: int64(g.CountEdges())}
		for _, share := range v.mixShares() {
			sh.total += share
			sh.cum = append(sh.cum, sh.total)
		}
		e.sizes = map[string]int{"vertices": int(sh.objects), "edges": int(sh.links)}
		cls := make([]*lbClient, clients)
		e.prepare = func() error {
			var err error
			if e.userBytes, err = graphUserBytes(g); err != nil {
				return err
			}
			seen := map[string]bool{}
			for _, id := range g.EdgeIDs() {
				rec, err := g.Edge(id)
				if err != nil {
					return err
				}
				if !seen[rec.Label] {
					seen[rec.Label] = true
					sh.labels = append(sh.labels, rec.Label)
				}
			}
			sort.Strings(sh.labels)
			g = nil // the oracle is the clients' model from here on
			return nil
		}
		e.newClient = func(c int) client {
			cls[c] = newLBClient(c, seed, sh)
			return cls[c]
		}
		e.finalChecks = func() ([]string, []string) { return durabilityCheck(e, cls) }
		return e, nil
	}
}

// lbClient is one LinkBench requester. It mints ids no other client
// mints, deletes and updates only objects and links it owns, and reads
// only objects that are never deleted, so every operation it issues is
// expected to succeed. Its model of what it changed is the oracle of the
// durability check.
type lbClient struct {
	c   int
	rng *rand.Rand
	sh  *lbShared

	nextObj, nextLink int64   // the next ids this client mints
	created           []int64 // live objects this client added
	links             []int64 // live links this client owns

	// Acknowledged state: the last "data" written per object and link,
	// and the ones deleted.
	objData  map[int64]string
	linkData map[int64]string
	objGone  map[int64]bool
	linkGone map[int64]bool
	pending  request
	op       string
	slot     int    // index into created or links of the pending op's target
	data     string // the pending write's payload
}

func newLBClient(c int, seed int64, sh *lbShared) *lbClient {
	l := &lbClient{
		c: c, rng: rand.New(rand.NewSource(streamSeed(seed, c))), sh: sh,
		nextObj: sh.objects + int64(c), nextLink: sh.links + int64(c),
		objData: map[int64]string{}, linkData: map[int64]string{},
		objGone: map[int64]bool{}, linkGone: map[int64]bool{},
	}
	// Client c owns the loaded links whose id ≡ c (mod clients).
	for id := int64(c); id < sh.links; id += clients {
		l.links = append(l.links, id)
	}
	return l
}

func (l *lbClient) payload() string {
	b := make([]byte, 32)
	for i := range b {
		b[i] = byte('a' + l.rng.Intn(26))
	}
	return string(b)
}

// anyObject is a loaded object: they are never deleted.
func (l *lbClient) anyObject() int64 { return l.rng.Int63n(l.sh.objects) }

// ownObject is a loaded object only this client updates (id ≡ c mod
// clients).
func (l *lbClient) ownObject() int64 {
	return l.rng.Int63n(l.sh.objects/clients)*clients + int64(l.c)
}

func (l *lbClient) pickOp() string {
	r := l.rng.Float64() * l.sh.total
	for i, c := range l.sh.cum {
		if r < c {
			return linkbench.PaperMix[i].Op
		}
	}
	return linkbench.PaperMix[len(linkbench.PaperMix)-1].Op
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers are marshalled
	}
	return b
}

func (l *lbClient) next() *request {
	l.op = l.pickOp()
	if l.op == linkbench.OpDeleteNode && len(l.created) == 0 {
		l.op = linkbench.OpAddNode // nothing of ours to delete yet
	}
	r := request{kind: kindWrite}
	switch l.op {
	case linkbench.OpAddNode:
		id := l.nextObj
		l.data = l.payload()
		attrs := map[string]any{"type": int64(l.rng.Intn(8)), "version": int64(1),
			"time": int64(1_600_000_000 + l.rng.Intn(100_000_000)), "data": l.data}
		r.method, r.path, r.id = "POST", "/vertex", id
		r.body = jsonBody(map[string]any{"id": id, "attrs": attrs})
		r.apply = func(s *core.Store) error { return s.AddVertex(id, attrs) }
		r.userBytes = 8 + int64(len(jsonBody(attrs)))
	case linkbench.OpUpdateNode:
		id := l.ownObject()
		l.data = l.payload()
		data := l.data
		r.method, r.path, r.id = "PATCH", "/vertex/"+strconv.FormatInt(id, 10)+"/attrs", id
		r.body = jsonBody(map[string]any{"set": map[string]string{"data": data}})
		r.apply = func(s *core.Store) error { return s.SetVertexAttr(id, "data", data) }
		r.userBytes = 8 + int64(len(data))
	case linkbench.OpDeleteNode:
		l.slot = l.rng.Intn(len(l.created))
		id := l.created[l.slot]
		r.method, r.path, r.id = "DELETE", "/vertex/"+strconv.FormatInt(id, 10), id
		r.apply = func(s *core.Store) error { return s.RemoveVertex(id) }
		r.userBytes = 8
	case linkbench.OpAddLink:
		id := l.nextLink
		from, to := l.anyObject(), l.anyObject()
		label := l.sh.labels[l.rng.Intn(len(l.sh.labels))]
		l.data = l.payload()
		attrs := map[string]any{"visibility": int64(1),
			"timestamp": int64(1_600_000_000 + l.rng.Intn(100_000_000)), "data": l.data}
		r.method, r.path, r.id = "POST", "/edge", id
		r.body = jsonBody(map[string]any{"id": id, "from": from, "to": to, "label": label, "attrs": attrs})
		r.apply = func(s *core.Store) error { return s.AddEdge(id, from, to, label, attrs) }
		r.userBytes = 24 + int64(len(label)) + int64(len(jsonBody(attrs)))
	case linkbench.OpDeleteLink:
		l.slot = l.rng.Intn(len(l.links))
		id := l.links[l.slot]
		r.method, r.path, r.id = "DELETE", "/edge/"+strconv.FormatInt(id, 10), id
		r.apply = func(s *core.Store) error { return s.RemoveEdge(id) }
		r.userBytes = 8
	case linkbench.OpUpdateLink:
		l.slot = l.rng.Intn(len(l.links))
		id := l.links[l.slot]
		l.data = l.payload()
		data := l.data
		r.method, r.path, r.id = "PATCH", "/edge/"+strconv.FormatInt(id, 10)+"/attrs", id
		r.body = jsonBody(map[string]any{"set": map[string]string{"data": data}})
		r.apply = func(s *core.Store) error { return s.SetEdgeAttr(id, "data", data) }
		r.userBytes = 8 + int64(len(data))
	case linkbench.OpGetNode:
		// Half the reads go to objects this client updates, whose data
		// the answer must match.
		id := l.anyObject()
		if l.rng.Intn(2) == 0 {
			id = l.ownObject()
		}
		r = request{kind: kindVertex, method: "GET", path: "/vertex/" + strconv.FormatInt(id, 10), id: id}
	case linkbench.OpCountLink:
		id := l.anyObject()
		label := l.sh.labels[l.rng.Intn(len(l.sh.labels))]
		r = request{kind: kindOut, method: "GET", path: "/vertex/" + strconv.FormatInt(id, 10) + "/out?label=" + label,
			id: id, label: label}
	case linkbench.OpMultigetLink:
		// The HTTP API has no multi-get: the link is fetched on its own.
		id := l.links[l.rng.Intn(len(l.links))]
		r = request{kind: kindEdge, method: "GET", path: "/edge/" + strconv.FormatInt(id, 10), id: id}
	case linkbench.OpGetLinkList:
		id := l.anyObject()
		r = request{kind: kindOut, method: "GET", path: "/vertex/" + strconv.FormatInt(id, 10) + "/out", id: id}
	}
	l.pending = r
	return &l.pending
}

func (l *lbClient) done(status int, body []byte) error {
	if status/100 != 2 {
		l.forget()
		return nil
	}
	id := l.pending.id
	switch l.op {
	case linkbench.OpAddNode:
		l.created = append(l.created, id)
		l.objData[id] = l.data
		l.nextObj += clients
	case linkbench.OpUpdateNode:
		l.objData[id] = l.data
	case linkbench.OpDeleteNode:
		l.created[l.slot] = l.created[len(l.created)-1]
		l.created = l.created[:len(l.created)-1]
		delete(l.objData, id)
		l.objGone[id] = true
	case linkbench.OpAddLink:
		l.links = append(l.links, id)
		l.linkData[id] = l.data
		l.nextLink += clients
	case linkbench.OpDeleteLink:
		l.links[l.slot] = l.links[len(l.links)-1]
		l.links = l.links[:len(l.links)-1]
		delete(l.linkData, id)
		l.linkGone[id] = true
	case linkbench.OpUpdateLink:
		l.linkData[id] = l.data
	case linkbench.OpGetNode:
		want, ok := l.objData[id]
		if !ok {
			return nil
		}
		var v struct {
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("%s: %w", l.pending.path, err)
		}
		if got := v.Attrs["data"]; got != want {
			return fmt.Errorf("%s: data %v, want %q", l.pending.path, got, want)
		}
	}
	return nil
}

// forget drops from the client's model what a failed mutation may have
// changed. A mutation can fail after it was applied, when the checkpoint
// its commit set off fails, so its effect is unknown: the client does not
// reuse the id it tried to add, and does not touch or check again the
// element it tried to change or delete.
func (l *lbClient) forget() {
	id := l.pending.id
	switch l.op {
	case linkbench.OpAddNode:
		l.nextObj += clients
	case linkbench.OpUpdateNode:
		delete(l.objData, id)
	case linkbench.OpDeleteNode:
		l.created[l.slot] = l.created[len(l.created)-1]
		l.created = l.created[:len(l.created)-1]
		delete(l.objData, id)
	case linkbench.OpAddLink:
		l.nextLink += clients
	case linkbench.OpDeleteLink:
		l.links[l.slot] = l.links[len(l.links)-1]
		l.links = l.links[:len(l.links)-1]
		delete(l.linkData, id)
	case linkbench.OpUpdateLink:
		delete(l.linkData, id)
	}
}

// durabilityCheck copies the store directory after the last acknowledged
// write, with the server still open, recovers the copy with core.Open,
// and checks that every acknowledged add, delete and attribute update is
// there and that core.Check finds no violations.
func durabilityCheck(e *env, cls []*lbClient) (passed, failed []string) {
	fail := func(err error) ([]string, []string) {
		return nil, []string{"durability: " + err.Error()}
	}
	cp, err := os.MkdirTemp(filepath.Dir(e.dir), "recovered-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cp)
	if err := copyDir(e.dir, cp); err != nil {
		return fail(err)
	}
	rec, err := core.Open(core.Options{Dir: cp})
	if err != nil {
		return fail(fmt.Errorf("recovering the copy: %w", err))
	}
	defer rec.Close()

	var acked, missing int
	var firstMissing error
	miss := func(err error) {
		missing++
		if firstMissing == nil {
			firstMissing = err
		}
	}
	hasData := func(attrs map[string]any, err error, want string) error {
		if err != nil {
			return err
		}
		if got := attrs["data"]; got != want {
			return fmt.Errorf("data %v, want %q", got, want)
		}
		return nil
	}
	for _, l := range cls {
		if l == nil {
			continue
		}
		for id, want := range l.objData {
			acked++
			attrs, err := rec.VertexAttrs(id)
			if err := hasData(attrs, err, want); err != nil {
				miss(fmt.Errorf("object %d: %w", id, err))
			}
		}
		for id := range l.objGone {
			acked++
			if rec.VertexExists(id) {
				miss(fmt.Errorf("deleted object %d is back", id))
			}
		}
		for id, want := range l.linkData {
			acked++
			attrs, err := rec.EdgeAttrs(id)
			if err := hasData(attrs, err, want); err != nil {
				miss(fmt.Errorf("link %d: %w", id, err))
			}
		}
		for id := range l.linkGone {
			acked++
			if _, err := rec.Edge(id); !errors.Is(err, blueprints.ErrNotFound) {
				miss(fmt.Errorf("deleted link %d: lookup returned %v", id, err))
			}
		}
	}
	if missing > 0 {
		failed = append(failed, fmt.Sprintf("durability: %d of %d acknowledged changes missing after recovery; first: %v",
			missing, acked, firstMissing))
	} else {
		passed = append(passed, fmt.Sprintf("durability: all %d acknowledged changes present after recovering a copy", acked))
	}
	if v := core.Check(rec); len(v) > 0 {
		failed = append(failed, fmt.Sprintf("durability: core.Check found %d violation(s); first: %s", len(v), v[0]))
	} else {
		passed = append(passed, "durability: core.Check found no violations in the recovered copy")
	}
	return passed, failed
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

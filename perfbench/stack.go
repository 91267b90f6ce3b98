package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"sqlgraph/internal/core"
	"sqlgraph/internal/server"
)

// clients is the closed-loop client count: each client sends its next
// request only after the previous answer arrived.
const clients = 2

// reqKind selects how the traced run attributes a request to layers.
type reqKind int

const (
	kindQuery  reqKind = iota // POST /query
	kindVertex                // GET /vertex/{id}
	kindOut                   // GET /vertex/{id}/out
	kindEdge                  // GET /edge/{id}
	kindWrite                 // a mutation
)

// request is one operation of a client's stream.
type request struct {
	kind   reqKind
	method string
	path   string
	body   []byte

	gremlin string // kindQuery
	qname   string // kindQuery: the query's name in per-query figures
	id      int64  // point reads
	label   string // kindOut: label filter, if any

	// kindWrite: the same mutation as a direct core call (the traced run
	// applies it this way, once), and its bytes of user data.
	apply     func(*core.Store) error
	userBytes int64
}

// client is one closed-loop request stream, generated from the seed. next
// returns the following request; done records the answer to it (status 0
// for a transport error) and returns an error when a 2xx answer's
// content is wrong. A client is used by one goroutine at a time.
type client interface {
	next() *request
	done(status int, body []byte) error
}

// workloads are the traffic mixes by name. Each set-up function
// generates the workload's dataset from the seed, loads it and starts the
// serving stack; durable stores go in a fresh directory under tmp.
var workloads = map[string]func(seed int64, tmp string) (*env, error){
	"dbpedia_analytic":  setupAnalytic,
	"dbpedia_point":     setupPoint,
	"linkbench_durable": setupLinkBench(lbReadMostly),
	"linkbench_table6":  setupLinkBench(lbVariant{}),
}

// lbReadMostly is linkbench_durable: Table 6 with writes cut to 0.02% of
// operations. A read that runs while the other client's commit waits for
// its fsync is slower, so at 0.1% writes the p99 followed the disk's
// fsync latency, which varies run to run on a shared disk. A checkpoint
// every 32 mutations keeps about five checkpoints in a 30 s run: each
// one's dump sets the peak heap, and with fewer the peak depends on
// whether a collection ends during one.
var lbReadMostly = lbVariant{writeShare: 0.0002, snapshotEvery: 32}

// env is a running serving stack with the workload's oracle.
type env struct {
	store  *core.Store
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	addr   string // the loopback listener's host:port
	dir    string // durable store directory; empty for in-memory stores

	sizes     map[string]int
	userBytes int64 // bytes of user data loaded: ids, labels, attribute JSON

	// prepare builds the oracle once set-up has been timed.
	prepare func() error
	// newClient returns client c's request stream.
	newClient func(c int) client
	// finalChecks runs the output checks that need the whole run (the
	// durability check); it returns the checks passed and failed.
	finalChecks func() (passed, failed []string)
}

// daemonConfig is sqlgraphd's default server configuration. The request
// log is formatted as the daemon does, then discarded.
func daemonConfig() server.Config {
	return server.Config{
		MaxInFlight:    64,
		RequestTimeout: 30 * time.Second,
		SessionTTL:     60 * time.Second,
		MaxBodyBytes:   1 << 20,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		SlowQuery:      250 * time.Millisecond,
		TraceBuffer:    128,
		SampleInterval: time.Second,
	}
}

// startStack serves store over a loopback listener the way sqlgraphd
// does.
func startStack(store *core.Store, dir string) (*env, error) {
	store.SetParallelism(0)
	srv := server.New(store, daemonConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	e := &env{
		store:       store,
		srv:         srv,
		hs:          &http.Server{Handler: srv.Handler()},
		served:      make(chan struct{}),
		addr:        ln.Addr().String(),
		dir:         dir,
		prepare:     func() error { return nil },
		finalChecks: func() ([]string, []string) { return nil, nil },
	}
	go func() {
		defer close(e.served)
		if err := e.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Error("perfbench: serve", slog.Any("error", err))
		}
	}()
	return e, nil
}

// close drains the server, closes the store and removes its directory.
func (e *env) close() error {
	if e.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	<-e.served
	e.hs = nil
	err = errors.Join(err, e.srv.Close(ctx), e.store.Close())
	if e.dir != "" {
		err = errors.Join(err, os.RemoveAll(e.dir))
	}
	return err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	corpus "repro/internal/workload"
	"repro/pdb"
)

// env is one workload set up and ready to take ops: the generated corpus,
// the opened database, the oracle, and whichever surfaces are running.
type env struct {
	w     *workload
	seed  int64
	procs int

	// steps holds how long each step of the set-up took, in seconds and in
	// order: the corpus, the open, each oracle, the surfaces, each warm-up
	// op. A step runs from the end of the one before it, so together they
	// cover the whole set-up, and every set-up of a workload has the same
	// steps (see setupTime).
	steps    []float64
	stepFrom time.Time

	dir     string            // generated corpus, removed by close
	sources map[string]string // relation name → pdbstore path
	db      *pdb.DB
	oracles []oracle // by parameter index

	// http surface: a server over one shared engine on a loopback port.
	serveEng *pdb.Engine
	httpSrv  *http.Server
	httpDone chan struct{}
	url      string
	client   *http.Client

	// cluster surface: an engine scattering over in-process shards.
	shards     []*cluster.Shard
	shardsDone chan struct{}
	clusterEng *pdb.Engine
}

// step ends the set-up step that began when the previous one ended.
func (e *env) step() {
	now := time.Now()
	e.steps = append(e.steps, now.Sub(e.stepFrom).Seconds())
	e.stepFrom = now
}

// setup generates the corpus, opens it, computes the oracle and starts the
// workload's surface, then warms it up. With allSurfaces the server and the
// cluster are started whatever the workload uses — the traced pass climbs
// both.
// The caller must close the returned env.
func setup(ctx context.Context, w *workload, seed int64, procs int, outDir string, allSurfaces bool) (e *env, err error) {
	e = &env{w: w, seed: seed, procs: procs, stepFrom: time.Now()}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	sc, err := corpus.ScenarioByName(w.Scenario)
	if err != nil {
		return e, err
	}
	if e.dir, err = os.MkdirTemp(outDir, "corpus-"); err != nil {
		return e, err
	}
	if e.sources, err = sc.Generate(e.dir, w.Rows, w.CorpusSeed); err != nil {
		return e, fmt.Errorf("generating %s: %w", w.Scenario, err)
	}
	e.step()
	if e.db, err = pdb.Open(e.sources); err != nil {
		return e, err
	}
	e.step()
	if err := e.computeOracles(ctx); err != nil {
		return e, err
	}
	if allSurfaces || w.Surface == surfaceHTTP {
		if err := e.startServer(); err != nil {
			return e, err
		}
	}
	if allSurfaces {
		if err := e.startCluster(); err != nil {
			return e, err
		}
	}
	e.step()
	return e, e.warmUp(ctx)
}

// computeOracles evaluates each distinct oracle program once, exactly, on
// one worker.
func (e *env) computeOracles(ctx context.Context) error {
	byProgram := map[string]oracle{}
	e.oracles = make([]oracle, len(e.w.Params))
	for i, p := range e.w.Params {
		src := e.w.oracle(p)
		if o, ok := byProgram[src]; ok {
			e.oracles[i] = o
			continue
		}
		q, err := e.db.Prepare(src)
		if err != nil {
			return fmt.Errorf("oracle %d: %w", i, err)
		}
		res, err := q.EvalExact(ctx, pdb.WithWorkers(1))
		if err != nil {
			return fmt.Errorf("oracle %d: %w", i, err)
		}
		o := newOracle(collect(res).Rows)
		byProgram[src], e.oracles[i] = o, o
		e.step()
	}
	return nil
}

// serveCacheEntries sizes the served engine's estimator cache (pdbserve's
// -cache) so that the hot ops' entries, touched by six ops in ten, always
// survive the LRU while the fresh ops' entries churn.
const serveCacheEntries = 1 << 14

func (e *env) startServer() error {
	var err error
	if e.serveEng, err = e.db.Engine(pdb.WithEngineCacheSize(serveCacheEntries)); err != nil {
		return err
	}
	h, err := server.New(server.Config{Engine: e.serveEng})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.url = "http://" + ln.Addr().String() + "/v1/query"
	e.httpSrv = &http.Server{Handler: h}
	e.httpDone = make(chan struct{})
	go func() {
		defer close(e.httpDone)
		_ = e.httpSrv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	e.client = &http.Client{}
	return nil
}

// clusterShards is the shard count of the cluster surface; each shard
// samples on one worker, so shards never outnumber the pinned cores.
const clusterShards = 2

func (e *env) startCluster() error {
	peers := make([]string, clusterShards)
	e.shardsDone = make(chan struct{}, clusterShards) // one send per shard
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		sh := cluster.NewShard(cluster.ShardConfig{Workers: 1})
		e.shards = append(e.shards, sh)
		peers[i] = ln.Addr().String()
		go func() {
			_ = sh.Serve(ln) // returns nil on Close
			e.shardsDone <- struct{}{}
		}()
	}
	var err error
	e.clusterEng, err = e.db.Engine(pdb.WithEngineCluster(pdb.ClusterOptions{
		Peers:      peers,
		HedgeAfter: -1, // hedging off: stragglers are a later benchmark
	}))
	return err
}

// warmUp runs the workload's warm-up ops (warmUpOps) through its surface, so
// that the served engine's cache holds the run's hot ops and the heap, the
// scheduler and the connection pools are in steady state.
func (e *env) warmUp(ctx context.Context) error {
	for i, o := range warmUpOps(e.w, e.seed) {
		if err := e.run(ctx, o, e.w.Surface); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
		e.step()
	}
	return nil
}

// run executes o on the given surface and checks the result.
func (e *env) run(ctx context.Context, o op, s surface) error {
	res, err := e.exec(ctx, o, s)
	if err != nil {
		return err
	}
	return check(o, res, e.oracles[o.Param])
}

// close stops every goroutine the env started, waits for it, and removes
// the corpus.
func (e *env) close() {
	if e.httpSrv != nil {
		e.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if e.httpSrv.Shutdown(ctx) != nil {
			_ = e.httpSrv.Close() // connections still open after the grace period
		}
		cancel()
		<-e.httpDone
	}
	if e.clusterEng != nil {
		_ = e.clusterEng.Close() // only releases pooled connections
	}
	for _, sh := range e.shards {
		_ = sh.Close() // always nil
		<-e.shardsDone
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir) // best effort: the directory is under -out
	}
}

// exec runs o through surface s the way a client would, consuming the
// result to its last row.
func (e *env) exec(ctx context.Context, o op, s surface) (opResult, error) {
	switch s {
	case surfaceHTTP:
		return e.post(ctx, o, nil)
	case surfaceCluster:
		q, err := e.clusterEng.Prepare(o.Program)
		if err != nil {
			return opResult{}, err
		}
		return evalQuery(ctx, q, o)
	default:
		q, err := e.db.Prepare(o.Program)
		if err != nil {
			return opResult{}, err
		}
		return evalQuery(ctx, q, o)
	}
}

// evaluate runs o's evaluation call on q: EvalExact for an exact op, Eval
// otherwise.
func evaluate(ctx context.Context, q *pdb.Query, o op) (*pdb.Result, error) {
	if o.Kind == kindExact {
		return q.EvalExact(ctx, o.options()...)
	}
	return q.Eval(ctx, o.options()...)
}

func evalQuery(ctx context.Context, q *pdb.Query, o op) (opResult, error) {
	res, err := evaluate(ctx, q, o)
	if err != nil {
		return opResult{}, err
	}
	return collect(res), nil
}

// collect iterates every row of res, as a client would.
func collect(res *pdb.Result) opResult {
	cols := res.Columns()
	keyCols, pCol := cols[:len(cols)-1], cols[len(cols)-1]
	out := opResult{Rows: make([]outRow, 0, res.Len()), SampledTrials: res.Stats().SampledTrials}
	vals := make([]any, len(keyCols))
	for row := range res.Rows() {
		for i, c := range keyCols {
			vals[i] = row.Value(c)
		}
		out.Rows = append(out.Rows, outRow{Key: rowKey(vals), P: row.Float(pCol)})
	}
	return out
}

// queryRequest is the POST /v1/query body (docs/API.md).
type queryRequest struct {
	Program     string  `json:"program"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
	ConfEpsilon float64 `json:"conf_epsilon,omitempty"`
	ConfDelta   float64 `json:"conf_delta,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Exact       bool    `json:"exact,omitempty"`
	Strata      int     `json:"strata,omitempty"`
}

func (o op) request() queryRequest {
	req := queryRequest{Program: o.Program, Workers: o.Workers}
	switch o.Kind {
	case kindExact:
		req.Exact = true
	case kindConf:
		req.ConfEpsilon, req.ConfDelta, req.Seed = o.Eps, o.Delta, o.Seed
	case kindSigma:
		req.Epsilon, req.Delta, req.Strata, req.Seed = o.Eps, o.Delta, o.Strata, o.Seed
	}
	return req
}

// ndjsonLine is any line of a /v1/query response: the header has Columns,
// a row has Row, the trailer has Stats.
type ndjsonLine struct {
	Columns []string       `json:"columns"`
	Row     map[string]any `json:"row"`
	Stats   *struct {
		Rows          int   `json:"rows"`
		SampledTrials int64 `json:"sampled_trials"`
	} `json:"stats"`
}

// countingReader counts the bytes read through it and reports when the
// first one arrived.
type countingReader struct {
	r         io.Reader
	n         int64
	firstByte func()
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 && c.n == 0 && c.firstByte != nil {
		c.firstByte()
	}
	c.n += int64(n)
	return n, err
}

// post sends o to the server and decodes every NDJSON line. A response
// counts only with status 200, a header line first and a stats trailer
// last. firstByte, when non-nil, is called as the first body byte arrives.
func (e *env) post(ctx context.Context, o op, firstByte func()) (opResult, error) {
	body, err := json.Marshal(o.request())
	if err != nil {
		return opResult{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return opResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return opResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return opResult{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	cr := &countingReader{r: resp.Body, firstByte: firstByte}
	dec := json.NewDecoder(cr)
	var out opResult
	var cols []string
	trailer := false
	for dec.More() {
		var line ndjsonLine
		if err := dec.Decode(&line); err != nil {
			return opResult{}, fmt.Errorf("decoding response: %w", err)
		}
		switch {
		case trailer:
			return opResult{}, fmt.Errorf("line after the stats trailer")
		case cols == nil:
			if len(line.Columns) == 0 {
				return opResult{}, fmt.Errorf("first line is not a header")
			}
			cols = line.Columns
		case line.Stats != nil:
			trailer = true
			out.SampledTrials = line.Stats.SampledTrials
			if line.Stats.Rows != len(out.Rows) {
				return opResult{}, fmt.Errorf("trailer counts %d rows, got %d", line.Stats.Rows, len(out.Rows))
			}
		default:
			vals := make([]any, len(cols)-1)
			for i, c := range cols[:len(cols)-1] {
				vals[i] = line.Row[c]
			}
			p, _ := line.Row[cols[len(cols)-1]].(float64)
			out.Rows = append(out.Rows, outRow{Key: rowKey(vals), P: p})
		}
	}
	if !trailer {
		return opResult{}, fmt.Errorf("response ended without a stats trailer")
	}
	out.Bytes = cr.n
	return out, nil
}

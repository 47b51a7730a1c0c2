package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/querylog"
	"repro/internal/textutil"
	"repro/internal/xrand"
)

// workload is one traffic mix against one deployment.
type workload struct {
	name string
	dep  deployment
	// rate is the open-loop search rate of all clients together, per
	// second; clients is the number of search connections (open and
	// closed loop alike).
	rate    float64
	clients int
	// uniform draws queries uniformly over the distinct logged
	// queries; otherwise they are drawn by click weight.
	uniform bool
	// baselineShare is the share of requests sent with ?baseline=1.
	baselineShare float64
	// writeRate is the writer's IngestBatch calls per second; zero
	// means the workload only reads.
	writeRate float64
	// warmAll warms the cache with every distinct query before timing.
	warmAll bool
}

// workloads are the benchmark's traffic mixes; BENCHMARK.md says why each
// exists.
var workloads = []workload{
	{name: "hot-frontdoor", dep: deployment{cacheSize: 4096, replicas: 1},
		rate: 2000, clients: 2, warmAll: true},
	{name: "cold-scatter", dep: deployment{cacheSize: 256, replicas: 1},
		rate: 600, clients: 2, uniform: true, baselineShare: 0.1},
	{name: "ingest-mixed", dep: deployment{cacheSize: 4096, replicas: 2, disk: true},
		rate: 250, clients: 1, writeRate: 25},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// batchSize is the writer's posts per IngestBatch call, preload included.
const batchSize = 20

// queryTable is the traffic source: the aggregated click log's
// distinct queries with their request bodies and click weights.
type queryTable struct {
	text   []string // as logged; what the client sends
	norm   []string // as serve hands it to the detector
	bodies [][]byte
	clicks []float64
}

func newQueryTable(log *querylog.Log) *queryTable {
	qs := log.Queries()
	t := &queryTable{text: qs}
	for _, q := range qs {
		t.norm = append(t.norm, strings.Join(textutil.Tokenize(q), " "))
		body, _ := json.Marshal(map[string]string{"query": q}) // a map of strings always marshals
		t.bodies = append(t.bodies, body)
		t.clicks = append(t.clicks, float64(log.Total(q)))
	}
	return t
}

// drawer is one client's deterministic request sequence.
type drawer struct {
	rng      *xrand.RNG
	weighted *xrand.Weighted // nil draws uniformly
	n        int
	baseline float64
}

// drawers returns one sequence per client for one phase of the run;
// the same seed, phase and client always give the same sequence.
func (t *queryTable) drawers(w workload, seed uint64, phase, clients int) []*drawer {
	out := make([]*drawer, clients)
	for c := range out {
		rng := xrand.New(seed*1_000_003 + uint64(phase)*7919 + uint64(c))
		d := &drawer{rng: rng, n: len(t.text), baseline: w.baselineShare}
		if !w.uniform {
			d.weighted = xrand.NewWeighted(rng.Split(), t.clicks)
		}
		out[c] = d
	}
	return out
}

func (d *drawer) next() (query int32, baseline bool) {
	if d.weighted != nil {
		query = int32(d.weighted.Draw())
	} else {
		query = int32(d.rng.Intn(d.n))
	}
	return query, d.baseline > 0 && d.rng.Float64() < d.baseline
}

// answerKey names one reference answer.
type answerKey struct {
	query    int32
	baseline bool
}

// oracle holds reference answers computed outside the timed window by
// a cold core.Detector over the same posts. want is the experts array
// exactly as the gateway encodes it; experts backs the slow path that
// compares decoded values when the bytes differ.
type oracle struct {
	want    map[answerKey][]byte
	experts map[answerKey][]expertise.Expert
}

// newOracle computes the reference answer of every key on two workers.
func newOracle(ref *core.Detector, t *queryTable, keys []answerKey) *oracle {
	o := &oracle{want: make(map[answerKey][]byte, len(keys)), experts: make(map[answerKey][]expertise.Expert, len(keys))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	const workers = 2
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				k := keys[i]
				var experts []expertise.Expert
				if k.baseline {
					experts = ref.SearchBaseline(t.norm[k.query])
				} else {
					experts, _ = ref.Search(t.norm[k.query])
				}
				if experts == nil {
					experts = []expertise.Expert{}
				}
				enc, _ := json.Marshal(experts) // finite float64s always marshal
				mu.Lock()
				o.want[k] = enc
				o.experts[k] = experts
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return o
}

// allKeys lists every query, and every baseline query too when the
// workload sends them.
func allKeys(t *queryTable, w workload) []answerKey {
	var keys []answerKey
	for q := range t.text {
		keys = append(keys, answerKey{query: int32(q)})
		if w.baselineShare > 0 {
			keys = append(keys, answerKey{query: int32(q), baseline: true})
		}
	}
	return keys
}

var expertsField = []byte(`"experts":`)

// check classifies one response. With a nil oracle (reads racing live
// writes) only the status and the shape of the body are checked.
func (o *oracle) check(k answerKey, status int, body []byte) outcome {
	if status != http.StatusOK {
		return outFailed
	}
	i := bytes.Index(body, expertsField)
	if i < 0 {
		return outWrong
	}
	if o == nil {
		return outOK
	}
	got := bytes.TrimSuffix(bytes.TrimRight(body[i+len(expertsField):], "\n"), []byte("}"))
	if bytes.Equal(got, o.want[k]) {
		return outOK
	}
	var resp struct {
		Experts []expertise.Expert `json:"experts"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return outWrong
	}
	want := o.experts[k]
	if len(resp.Experts) != len(want) {
		return outWrong
	}
	for j := range want {
		if resp.Experts[j] != want[j] {
			return outWrong
		}
	}
	return outOK
}

// httpClient posts search requests to the gateway over at most clients
// keep-alive connections, one per client goroutine.
type httpClient struct {
	hc   *http.Client
	url  string
	bufs []*bytes.Buffer
}

func newHTTPClient(url string, clients int) *httpClient {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	c := &httpClient{hc: &http.Client{Transport: tr}, url: url}
	for i := 0; i < clients; i++ {
		c.bufs = append(c.bufs, new(bytes.Buffer))
	}
	return c
}

// post sends one search and returns the status and the body, which is
// valid until client c's next call.
func (h *httpClient) post(c int, body []byte, baseline bool) (int, []byte, error) {
	url := h.url
	if baseline {
		url += "?baseline=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := h.bufs[c]
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

func (h *httpClient) close() { h.hc.CloseIdleConnections() }

// searcher returns a sender that draws each client's next request from
// its drawer, posts it and checks the answer against o.
func searcher(h *httpClient, t *queryTable, o *oracle, ds []*drawer) sender {
	return func(c int) (outcome, int, int32, bool) {
		q, b := ds[c].next()
		status, body, err := h.post(c, t.bodies[q], b)
		if err != nil {
			return outFailed, status, q, b
		}
		return o.check(answerKey{query: q, baseline: b}, status, body), status, q, b
	}
}

package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// topK is the list length every request asks for.
const topK = 10

// servingProfile is the datagen profile of the serving catalog.
const servingProfile = "ML20M"

// size fixes the shape of a run. The full size is frozen: changing it
// changes what every recorded number means. The smoke size exists so the
// package's own test can run all four workloads in seconds.
type size struct {
	users       int // user base cut (datagen is O(users × items))
	items       int // 0 = the profile's full item width
	sample      int // users whose answers are checked against the oracle
	trainScale  float64
	warmup      time.Duration
	setups      int // set-ups per run; setup_s is their median
	probeIters  int // iterations of each direct-call probe
	replay      int // requests in the traced replay sample
	evalUsers   int // test users evaluated per arm (0 = all)
	trainEpochs int // arm A/B/C steps, in passes over the training pairs
}

var fullSize = size{
	users: 2048, sample: 512, trainScale: 1,
	warmup: 1500 * time.Millisecond, setups: 3, probeIters: 200, replay: 2000,
	evalUsers: 4096, trainEpochs: 10,
}

var smokeSize = size{
	users: 64, items: 512, sample: 32, trainScale: 0.05,
	warmup: 100 * time.Millisecond, setups: 2, probeIters: 20, replay: 100,
	evalUsers: 0, trainEpochs: 2,
}

// catalog is the generated serving input: the exclusion dataset, the
// float64 model (world ground-truth factors plus a popularity-aligned
// bias, so score geometry is that of a trained model and IVF cells are
// as lopsided as real ones), and the users the oracle checks.
type catalog struct {
	train    *dataset.Dataset
	model    *mf.Model
	sample   []int32 // ascending user ids
	genTime  time.Duration
	numUsers int
	numItems int
}

// worldSeed generates the corpora. It is frozen, like the arrival rates:
// the catalog is the deployment, and --seed draws what varies from day to
// day on one deployment — who asks, in what order, with which histories,
// what feedback arrives, how the split and the SGD sampling fall. Catalogs
// from different seeds differ by up to 9 % in closed-loop throughput (the
// top-K heap and the IVF cell sizes depend on the score geometry), which
// would drown the run-to-run bound the metrics are held to.
const worldSeed = 20230403

// buildCatalog generates the serving corpus and draws the oracle's sample
// users from seed.
func buildCatalog(sz size, seed uint64) (*catalog, error) {
	p, err := datagen.ProfileByName(servingProfile)
	if err != nil {
		return nil, err
	}
	if sz.items > 0 && sz.items < p.Items {
		p.Pairs = int(float64(p.Pairs) * float64(sz.items) / float64(p.Items))
		p.Items = sz.items
	}
	if sz.users < p.Users {
		p.Pairs = int(float64(p.Pairs) * float64(sz.users) / float64(p.Users))
		p.Users = sz.users
	}
	if p.Pairs < 4*p.Users {
		p.Pairs = 4 * p.Users
	}
	t0 := time.Now()
	world, err := datagen.Generate(p, mathx.NewRNG(worldSeed))
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	bias := make([]float64, p.Items)
	for i := range bias {
		bias[i] = 0.05 * math.Log(world.Popularity[i])
	}
	m, err := mf.FromRaw(mf.Config{NumUsers: p.Users, NumItems: p.Items, Dim: world.Dim, UseBias: true},
		world.TrueUser, world.TrueItem, bias)
	if err != nil {
		return nil, err
	}
	c := &catalog{train: world.Data, model: m, genTime: gen, numUsers: p.Users, numItems: p.Items}
	n := sz.sample
	if n > p.Users {
		n = p.Users
	}
	for _, u := range mathx.NewRNG(seed ^ 0x5a17).Perm(p.Users)[:n] {
		c.sample = append(c.sample, int32(u))
	}
	sort.Slice(c.sample, func(a, b int) bool { return c.sample[a] < c.sample[b] })
	return c, nil
}

// oracle is the naive reference recommender every served list is checked
// against: a dense float64 dot product over the rows actually served
// (widened from float32 where the shard serves float32), exclusions held
// in a map, and a full sort. It shares no code with score, rank or
// retrieval.
type oracle struct {
	dim   int
	user  func(u int32) []float64
	rows  []float64 // items × dim, widened once
	bias  []float64
	train *dataset.Dataset
}

func newOracle(p mf.Params, train *dataset.Dataset) *oracle {
	o := &oracle{
		dim:   p.Dim(),
		user:  func(u int32) []float64 { return append([]float64(nil), p.UserVector(u, nil)...) },
		rows:  make([]float64, 0, p.NumItems()*p.Dim()),
		bias:  make([]float64, p.NumItems()),
		train: train,
	}
	var buf []float64
	for i := int32(0); int(i) < p.NumItems(); i++ {
		buf = p.ItemVector(i, buf)
		o.rows = append(o.rows, buf...)
		o.bias[i] = p.Bias(i)
	}
	return o
}

type scored struct {
	item  int32
	score float64
}

// top returns the k best items for u that are neither training positives
// nor in extra, best first, ties toward the smaller id.
func (o *oracle) top(u int32, k int, extra []int32) []scored {
	excluded := make(map[int32]bool)
	for _, i := range o.train.Positives(u) {
		excluded[i] = true
	}
	for _, i := range extra {
		excluded[i] = true
	}
	uf := o.user(u)
	all := make([]scored, 0, len(o.bias))
	for i := range o.bias {
		if excluded[int32(i)] {
			continue
		}
		vf := o.rows[i*o.dim : (i+1)*o.dim]
		s := 0.0
		for q := 0; q < o.dim; q++ {
			s += uf[q] * vf[q]
		}
		all = append(all, scored{item: int32(i), score: s + o.bias[i]})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].item < all[b].item
	})
	if len(all) > k {
		all = all[:k]
	}
	return append([]scored(nil), all...) // not a view of the catalog-wide slice
}

// topAll computes the reference lists of the sample users on every core.
func (o *oracle) topAll(users []int32) map[int32][]scored {
	out := make(map[int32][]scored, len(users))
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int32)
	for w := 0; w < numProcs(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				top := o.top(u, topK, nil)
				mu.Lock()
				out[u] = top
				mu.Unlock()
			}
		}()
	}
	for _, u := range users {
		work <- u
	}
	close(work)
	wg.Wait()
	return out
}

// tieTolerance is how close two scores must be for a swapped pair to be a
// tie rather than a wrong answer: the kernels sum in a different order
// than the oracle, so the last bits of a score can differ.
const tieTolerance = 1e-9

// matchExact reports whether a served list equals the reference item for
// item, accepting a different item only where its served score equals
// the reference score at that position (a tie broken the other way).
func matchExact(served []servedItem, ref []scored) error {
	if len(served) != len(ref) {
		return fmt.Errorf("served %d items, oracle has %d", len(served), len(ref))
	}
	for j := range ref {
		if served[j].Item == ref[j].item {
			continue
		}
		if math.Abs(served[j].Score-ref[j].score) > tieTolerance*(1+math.Abs(ref[j].score)) {
			return fmt.Errorf("position %d: served item %d (%.9g), oracle item %d (%.9g)",
				j, served[j].Item, served[j].Score, ref[j].item, ref[j].score)
		}
	}
	return nil
}

// recallOf is |served ∩ reference| / |reference|.
func recallOf(served []servedItem, ref []scored) float64 {
	if len(ref) == 0 {
		return 1
	}
	in := make(map[int32]bool, len(ref))
	for _, r := range ref {
		in[r.item] = true
	}
	hit := 0
	for _, s := range served {
		if in[s.Item] {
			hit++
		}
	}
	return float64(hit) / float64(len(ref))
}

// servedItem mirrors the wire form of one recommended item; the benchmark
// decodes responses into its own types so a change to the server's
// encoding is caught as a mismatch rather than silently followed.
type servedItem struct {
	Item  int32   `json:"item"`
	Score float64 `json:"score"`
}

type servedList struct {
	User     *int32       `json:"user"`
	Items    []servedItem `json:"items"`
	Degraded string       `json:"degraded"`
	Shard    string       `json:"shard"`
}

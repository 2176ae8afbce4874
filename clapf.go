package clapf

import (
	"io"
	"slices"

	"clapf/internal/core"
	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/sampling"
	"clapf/internal/score"
	"clapf/internal/store"
)

// Variant selects which rank-biased measure CLAPF smooths and optimizes.
type Variant = sampling.Objective

// The two CLAPF instantiations of the paper.
const (
	// MAP optimizes the smoothed Mean Average Precision objective
	// (CLAPF-MAP, Eqs. 15–18).
	MAP = sampling.MAP
	// MRR optimizes the smoothed Mean Reciprocal Rank objective
	// (CLAPF-MRR, Eqs. 19–21).
	MRR = sampling.MRR
)

// SamplerStrategy selects how training triples are drawn.
type SamplerStrategy = sampling.Strategy

// Sampler strategies; DSS is the paper's Double Sampling Strategy
// ("CLAPF+" rows in Table 2).
const (
	SamplerUniform  = sampling.Uniform
	SamplerDSS      = sampling.DSS
	SamplerPositive = sampling.PositiveOnly
	SamplerNegative = sampling.NegativeOnly
)

// Dataset is an immutable implicit-feedback dataset.
type Dataset = dataset.Dataset

// Interaction is one observed (user, item) pair.
type Interaction = dataset.Interaction

// Rating is an explicit-feedback record for preprocessing.
type Rating = dataset.Rating

// NewDataset builds a dataset from positive interactions.
func NewDataset(name string, numUsers, numItems int, pairs []Interaction) (*Dataset, error) {
	return dataset.FromInteractions(name, numUsers, numItems, pairs)
}

// DatasetFromRatings applies the paper's preprocessing: ratings strictly
// above threshold become positive implicit feedback.
func DatasetFromRatings(name string, numUsers, numItems int, ratings []Rating, threshold float64) (*Dataset, error) {
	return dataset.FromRatings(name, numUsers, numItems, ratings, threshold)
}

// ReadDatasetTSV parses the TSV format written by WriteDatasetTSV.
func ReadDatasetTSV(r io.Reader) (*Dataset, error) { return dataset.ReadTSV(r) }

// WriteDatasetTSV serializes a dataset as tab-separated pairs.
func WriteDatasetTSV(w io.Writer, d *Dataset) error { return dataset.WriteTSV(w, d) }

// Split divides a dataset 50/50 into train and test halves under the given
// seed, the paper's evaluation protocol.
func Split(d *Dataset, seed uint64) (train, test *Dataset) {
	return dataset.Split(d, mathx.NewRNG(seed), 0.5)
}

// SplitFrac divides a dataset with an arbitrary training fraction.
func SplitFrac(d *Dataset, seed uint64, trainFrac float64) (train, test *Dataset) {
	return dataset.Split(d, mathx.NewRNG(seed), trainFrac)
}

// Profile names a synthetic corpus shape mirroring the paper's Table 1.
type Profile = datagen.Profile

// The six Table 1 corpus profiles.
var (
	ProfileML100K  = mustProfile("ML100K")
	ProfileML1M    = mustProfile("ML1M")
	ProfileUserTag = mustProfile("UserTag")
	ProfileML20M   = mustProfile("ML20M")
	ProfileFlixter = mustProfile("Flixter")
	ProfileNetflix = mustProfile("Netflix")
)

func mustProfile(name string) Profile {
	p, err := datagen.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Profiles returns all six Table 1 profiles.
func Profiles() []Profile { return append([]Profile(nil), datagen.Table1Profiles...) }

// ProfileByName resolves a Table 1 profile case-insensitively.
func ProfileByName(name string) (Profile, error) { return datagen.ProfileByName(name) }

// GenerateDataset synthesizes an implicit-feedback dataset with the
// profile's statistical shape, scaled down by scale (0 < scale < 1; 0 or 1
// keeps full size).
func GenerateDataset(p Profile, scale float64, seed uint64) (*Dataset, error) {
	w, err := datagen.Generate(p.Scaled(scale), mathx.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return w.Data, nil
}

// Config parameterizes a trainer; see DefaultConfig.
type Config = core.Config

// SamplerConfig tunes triple sampling inside a Config.
type SamplerConfig = sampling.TripleConfig

// DefaultConfig returns the paper's baseline hyper-parameters for the
// variant and a step budget of 30 passes over trainPairs.
func DefaultConfig(v Variant, trainPairs int) Config {
	return core.DefaultConfig(v, trainPairs)
}

// Trainer learns a model for Config.Objective (CLAPF unless set
// otherwise) by stochastic gradient descent, on one
// worker (serial, bit-reproducible; NewTrainer) or on several lock-free
// Hogwild workers (NewParallelTrainer). It is one type with one API
// either way.
type Trainer = core.Trainer

// TrainStats is one training-telemetry snapshot (smoothed loss, gradient
// magnitude, steps/sec) delivered to a Trainer.SetStatsHook callback.
type TrainStats = core.TrainStats

// StatsHook receives TrainStats snapshots during training.
type StatsHook = core.StatsHook

// NewTrainer validates cfg and prepares a trainer over the training split.
func NewTrainer(cfg Config, train *Dataset) (*Trainer, error) {
	return core.NewTrainer(cfg, train)
}

// TrainerState is a trainer's resumable non-parameter state — what
// Trainer.Snapshot captures and Trainer.Restore replays: the schedule
// position and one WorkerState per worker. Together with the model
// parameters it makes training crash-safe.
type TrainerState = core.TrainerState

// WorkerState is one worker's RNG streams inside a TrainerState.
type WorkerState = core.WorkerState

// SamplerState is the resumable state of an objective's sampler inside a
// WorkerState: every stream it owns and its refresh position.
type SamplerState = sampling.SamplerState

// WorkerStat reports one training worker's lifetime throughput.
type WorkerStat = core.WorkerStat

// NewParallelTrainer validates cfg and prepares a trainer that shards
// users across numWorkers workers; NewTrainer is the numWorkers = 1 case.
// Multi-worker runs are statistically equivalent to serial training but
// not bit-reproducible; see the internal/core package documentation.
func NewParallelTrainer(cfg Config, train *Dataset, numWorkers int) (*Trainer, error) {
	return core.NewParallelTrainer(cfg, train, numWorkers)
}

// Model is a learned matrix-factorization model: Score, ScoreAll, and the
// factor accessors.
type Model = mf.Model

// SaveModel persists a model to w as a float64 model file (see
// internal/store for the format), with an empty metadata block.
func SaveModel(w io.Writer, m *Model) error { return store.Save(w, m) }

// LoadModel reads a model written by SaveModel, verifying its checksum.
func LoadModel(r io.Reader) (*Model, error) { return store.Load(r) }

// SaveModelFile atomically writes a model to path.
func SaveModelFile(path string, m *Model) error { return store.SaveFile(path, m) }

// LoadModelFile reads a model from path.
func LoadModelFile(path string) (*Model, error) { return store.LoadFile(path) }

// Scorer is anything that can score all items for a user — every model in
// this repository.
type Scorer = eval.Scorer

// EvalOptions tunes Evaluate.
type EvalOptions = eval.Options

// Result aggregates ranking metrics over evaluated users.
type Result = eval.Result

// Evaluate runs the paper's full-ranking protocol: for every test user,
// all training-unobserved items are ranked and Precision@k, Recall@k,
// F1@k, 1-call@k, NDCG@k, MAP, MRR, and AUC are averaged.
func Evaluate(s Scorer, train, test *Dataset, opts EvalOptions) Result {
	return eval.Evaluate(s, train, test, opts)
}

// Recommendation is one ranked item with its predicted score.
type Recommendation = rank.Entry

// Recommend returns the top-k unobserved items for user u under the model,
// best first — the serving-path call of §4.3.
func Recommend(m *Model, train *Dataset, u int32, k int) []Recommendation {
	top, _ := score.NewEngine(m).TopK(u, k, train.Positives(u))
	return top
}

// RatingFormat names a supported on-disk ratings layout for LoadRatings.
type RatingFormat = dataset.RatingFormat

// Supported real-corpus formats.
const (
	// FormatML100K parses MovieLens-100K "u.data" (tab-separated).
	FormatML100K = dataset.FormatML100K
	// FormatML1M parses MovieLens-1M "ratings.dat" ("::"-separated).
	FormatML1M = dataset.FormatML1M
	// FormatCSV parses "user,item,rating[,timestamp]" with optional header.
	FormatCSV = dataset.FormatCSV
)

// IDMapping translates the dense ids LoadRatings assigns back to the
// source file's identifiers.
type IDMapping = dataset.IDMapping

// LoadRatings parses a real ratings file (MovieLens and friends), applies
// the paper's >threshold preprocessing, and returns the implicit dataset
// with its id mapping — so every experiment in this repository can run on
// the actual corpora when you have them.
func LoadRatings(r io.Reader, format RatingFormat, name string, threshold float64) (*Dataset, *IDMapping, error) {
	return dataset.LoadRatings(r, format, name, threshold)
}

// FoldInUser computes factors for a user unseen at training time from
// their interaction history — the cold-start serving path (one WMF ALS
// half-step over frozen item factors).
func FoldInUser(m *Model, history []int32, reg float64) ([]float64, error) {
	return mf.FoldInUser(m, history, reg)
}

// RecommendFoldIn returns top-k items for a folded-in user vector,
// excluding the history itself.
func RecommendFoldIn(m *Model, userFactors []float64, history []int32, k int) []Recommendation {
	exclude := slices.Clone(history)
	slices.Sort(exclude)
	top, _ := score.NewEngine(m).TopKFoldIn(userFactors, k, exclude)
	return top
}

// SimilarItems returns the k nearest items to item i by factor cosine.
func SimilarItems(m *Model, i int32, k int) ([]Recommendation, error) {
	return mf.SimilarItems(m, i, k)
}

// Objective is what a Trainer optimizes: which item rows a step touches
// and with which coefficients. Config.Objective nil is the paper's CLAPF,
// described by Config.Variant, Lambda and Sampler; BPR and Multi are the
// other objectives exported here.
type Objective = core.Objective

// BPR is Bayesian Personalized Ranking, CLAPF's λ = 0 reduction, as an
// objective of the one Trainer; its Negatives field picks the sampler.
type BPR = core.BPR

// BPR's negative samplers: uniform, Dynamic Negative Sampling, Adaptive
// Oversampling, and an Alpha-Beta Sampling approximation.
const (
	NegativesUniform = sampling.UniformNegatives
	NegativesDNS     = sampling.DNSNegatives
	NegativesAoBPR   = sampling.AoBPRNegatives
	NegativesABS     = sampling.ABSNegatives
)

// Multi is CLAPF-Multi, the three-pair extension instantiating the
// paper's "not limited to the instantiations in this paper" direction,
// as an objective of the one Trainer; see DefaultMulti.
type Multi = core.Multi

// DefaultMulti returns the default three-pair blend.
func DefaultMulti() Multi { return core.DefaultMulti() }

// NewMultiTrainer validates cfg and prepares a CLAPF-Multi trainer: the
// one Trainer with cfg.Objective set to m.
func NewMultiTrainer(cfg Config, m Multi, train *Dataset) (*Trainer, error) {
	cfg.Objective = m
	return core.NewTrainer(cfg, train)
}

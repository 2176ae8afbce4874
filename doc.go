// Package clapf is a pure-Go implementation of Collaborative
// List-and-Pairwise Filtering (Yu et al., TKDE 2020 / ICDE 2023), a hybrid
// listwise-and-pairwise collaborative-filtering framework for top-k
// recommendation from implicit feedback, together with every substrate and
// baseline its evaluation depends on.
//
// The public API lives in this root package:
//
//	data, _ := clapf.GenerateDataset(clapf.ProfileML100K, 0.25, 1)
//	train, test := clapf.Split(data, 42)
//	cfg := clapf.DefaultConfig(clapf.MAP, train.NumPairs())
//	trainer, _ := clapf.NewTrainer(cfg, train)
//	trainer.Run()
//	recs := clapf.Recommend(trainer.Model(), train, user, 10)
//	result := clapf.Evaluate(trainer.Model(), train, test, clapf.EvalOptions{})
//
// NewTrainer returns the one trainer: a sequential, bit-reproducible
// loop of one SGD step, the Eq. 22 update in internal/core/step.go, which
// the CLAPF variants, CLAPF-Multi, BPR and MPR share. They are objectives
// of that one Trainer (Config.Objective; nil is CLAPF) and differ from
// each other only by which items a step samples and a coefficient vector.
//
// Everything below it — matrix factorization, samplers, metrics, the
// baseline zoo (BPR, MPR, CLiMF, WMF, PopRank, RandomWalk, NeuMF, NeuPR,
// DeepICF), the synthetic dataset generator, and the experiment harness
// that regenerates the paper's tables and figures — lives under internal/
// and is reachable through this facade or the cmd/ binaries.
package clapf

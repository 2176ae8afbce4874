// Package baselines implements the non-neural comparison methods of §6.3
// whose updates are their own: PopRank, RandomWalk, WMF (Hu et al. 2008),
// CLiMF (Shi et al. 2012) and GBPR (Pan & Chen 2013). BPR (Rendle et al.
// 2009) and MPR (Yu et al. 2018) have a risk linear in the item scores
// and are objectives of the one trainer (core.BPR, core.MPR); this
// package keeps their tests. All matrix-factorization methods share the
// mf substrate so that — as the paper requires for a fair comparison —
// every model runs in the same code framework.
package baselines

import (
	"clapf/internal/dataset"
)

// Fitter is a model that learns from a training split in one call.
type Fitter interface {
	Fit(train *dataset.Dataset) error
}

package baselines

import (
	"fmt"

	"clapf/internal/dataset"
	"clapf/internal/linalg"
	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// WMF is weighted matrix factorization for implicit feedback (Hu, Koren &
// Volinsky 2008): a pointwise regression that treats every cell of the
// user-item matrix as a 0/1 observation, with observed cells up-weighted by
// a confidence factor, minimized by alternating least squares. The
// (1 + α)-weighted normal equations per user/item are d×d systems solved by
// Cholesky factorization.
type WMF struct {
	cfg   WMFConfig
	model *mf.Model
}

// WMFConfig tunes the factorization.
type WMFConfig struct {
	Dim    int     // latent dimensionality (paper searches {10, 20})
	Alpha  float64 // confidence weight of observed cells (paper: {10..100})
	Reg    float64 // L2 regularization of both factor matrices
	Sweeps int     // ALS sweeps (one sweep = users then items)
	Seed   uint64
}

// DefaultWMFConfig mirrors the paper's mid-range search values.
func DefaultWMFConfig() WMFConfig {
	return WMFConfig{Dim: 20, Alpha: 20, Reg: 0.1, Sweeps: 10}
}

// NewWMF validates the configuration.
func NewWMF(cfg WMFConfig) (*WMF, error) {
	switch {
	case cfg.Dim <= 0:
		return nil, fmt.Errorf("baselines: WMF Dim = %d, want > 0", cfg.Dim)
	case cfg.Alpha < 0:
		return nil, fmt.Errorf("baselines: WMF Alpha = %v, want >= 0", cfg.Alpha)
	case cfg.Reg <= 0:
		return nil, fmt.Errorf("baselines: WMF Reg = %v, want > 0 (ALS needs the ridge)", cfg.Reg)
	case cfg.Sweeps < 1:
		return nil, fmt.Errorf("baselines: WMF Sweeps = %d, want >= 1", cfg.Sweeps)
	}
	return &WMF{cfg: cfg}, nil
}

// Model exposes the learned factors (nil before Fit).
func (w *WMF) Model() *mf.Model { return w.model }

// ScoreAll implements eval.Scorer.
func (w *WMF) ScoreAll(u int32, out []float64) { w.model.ScoreAll(u, out) }

// Fit runs ALS. With preference p_ui = 1 for observed cells and confidence
// c_ui = 1 + α·Y_ui, each user solve is
//
//	(VᵀV + α·V_uᵀV_u + λI)·x = (1 + α)·Σ_{i∈I_u⁺} v_i,
//
// where VᵀV is shared across users (the Hu et al. speed trick), and
// symmetrically for items.
func (w *WMF) Fit(train *dataset.Dataset) error {
	var err error
	w.model, err = mf.New(mf.Config{
		NumUsers: train.NumUsers(),
		NumItems: train.NumItems(),
		Dim:      w.cfg.Dim,
		UseBias:  false,
	})
	if err != nil {
		return err
	}
	w.model.InitGaussian(mathx.NewRNG(w.cfg.Seed), 0.1)

	// Item→users adjacency for the item half-sweep.
	itemUsers := make([][]int32, train.NumItems())
	train.ForEach(func(u, i int32) {
		itemUsers[i] = append(itemUsers[i], u)
	})

	d := w.cfg.Dim
	for sweep := 0; sweep < w.cfg.Sweeps; sweep++ {
		if err := w.halfSweep(train.NumUsers(), d,
			func(u int) []int32 { return train.Positives(int32(u)) },
			func(i int32) []float64 { return w.model.ItemFactors(i) },
			func(u int) []float64 { return w.model.UserFactors(int32(u)) },
			train.NumItems(),
		); err != nil {
			return fmt.Errorf("baselines: WMF user sweep %d: %w", sweep, err)
		}
		if err := w.halfSweep(train.NumItems(), d,
			func(i int) []int32 { return itemUsers[i] },
			func(u int32) []float64 { return w.model.UserFactors(u) },
			func(i int) []float64 { return w.model.ItemFactors(int32(i)) },
			train.NumUsers(),
		); err != nil {
			return fmt.Errorf("baselines: WMF item sweep %d: %w", sweep, err)
		}
	}
	return nil
}

// halfSweep solves the normal equations for one side of the factorization.
// rows is the count of vectors being re-solved; linked(r) lists the
// opposite-side indices observed with row r; factorOf fetches an
// opposite-side factor; target fetches the row's own factor storage;
// oppCount is the size of the opposite side.
func (w *WMF) halfSweep(rows, d int,
	linked func(r int) []int32,
	factorOf func(idx int32) []float64,
	target func(r int) []float64,
	oppCount int,
) error {
	// Shared Gram matrix Σ over *all* opposite vectors.
	gram := linalg.NewMatrix(d)
	for idx := 0; idx < oppCount; idx++ {
		gram.SymRankOne(1, factorOf(int32(idx)))
	}

	a := linalg.NewMatrix(d)
	b := make([]float64, d)
	for r := 0; r < rows; r++ {
		obs := linked(r)
		copy(a.Data, gram.Data)
		mathx.Fill(b, 0)
		for _, idx := range obs {
			f := factorOf(idx)
			a.SymRankOne(w.cfg.Alpha, f)
			mathx.AXPY(1+w.cfg.Alpha, f, b)
		}
		a.AddDiagonal(w.cfg.Reg)
		if err := linalg.Cholesky(a); err != nil {
			return err
		}
		x := target(r)
		linalg.CholeskySolve(a, b, x)
	}
	return nil
}

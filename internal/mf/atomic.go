package mf

import "clapf/internal/mathx"

// Atomic parameter access for Hogwild-style parallel SGD (core.Kernel's
// Atomic access policy). Item factors and biases are the only parameters
// shared between training workers — users are sharded, so user rows stay
// single-writer — and workers touch them exclusively through these
// element-wise atomic accessors. That makes the unavoidable collisions of
// lock-free SGD well-defined (last writer wins per element, no torn
// values) and race-detector clean, at the cost of an ordinary load/store
// on mainstream hardware.

// LoadItemFactors copies V_i into dst (length Dim) using atomic loads.
func (m *Model) LoadItemFactors(i int32, dst []float64) {
	row := m.ItemFactors(i)
	for q := range row {
		dst[q] = mathx.AtomicLoadFloat64(&row[q])
	}
}

// StoreItemFactors publishes src (length Dim) into V_i element-wise with
// atomic stores.
func (m *Model) StoreItemFactors(i int32, src []float64) {
	row := m.ItemFactors(i)
	for q := range row {
		mathx.AtomicStoreFloat64(&row[q], src[q])
	}
}

// LoadBias atomically reads b_i, or 0 when the model has no bias term.
func (m *Model) LoadBias(i int32) float64 {
	if m.b == nil {
		return 0
	}
	return mathx.AtomicLoadFloat64(&m.b[i])
}

// StoreBias atomically writes b_i; a no-op for bias-free models so update
// rules need not branch.
func (m *Model) StoreBias(i int32, v float64) {
	if m.b != nil {
		mathx.AtomicStoreFloat64(&m.b[i], v)
	}
}

// Package served builds the catalog the repository's benchmark serves, for
// the in-package benchmarks that time a miss on it rather than on a
// gaussian catalog, where the bound filter passes a different number of
// rows: the ML20M datagen world cut to 2048 users, world seed 20230403,
// b_i = 0.05·ln popularity_i, as benchmark/catalog.go builds it.
package served

import (
	"math"
	"sync"

	"clapf/internal/datagen"
	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// Catalog returns the served float64 model and every user's training
// positives, the exclusions a miss passes. It is built once a process.
var Catalog = sync.OnceValues(func() (*mf.Model, [][]int32) {
	const users, worldSeed = 2048, 20230403
	p, err := datagen.ProfileByName("ML20M")
	if err != nil {
		panic(err)
	}
	p.Pairs = max(int(float64(p.Pairs)*float64(users)/float64(p.Users)), 4*users)
	p.Users = users
	w, err := datagen.Generate(p, mathx.NewRNG(worldSeed))
	if err != nil {
		panic(err)
	}
	bias := make([]float64, p.Items)
	for i := range bias {
		bias[i] = 0.05 * math.Log(w.Popularity[i])
	}
	m, err := mf.FromRaw(mf.Config{NumUsers: p.Users, NumItems: p.Items, Dim: w.Dim, UseBias: true}, w.TrueUser, w.TrueItem, bias)
	if err != nil {
		panic(err)
	}
	positives := make([][]int32, p.Users)
	for u := range positives {
		positives[u] = w.Data.Positives(int32(u))
	}
	return m, positives
})

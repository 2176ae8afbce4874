package score

import (
	"math"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
)

func testModel(t *testing.T, users, items, dim int) *mf.Model {
	t.Helper()
	m := mf.MustNew(mf.Config{NumUsers: users, NumItems: items, Dim: dim, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(7), 0.1)
	// Biases are zero after init; give them structure so a dropped bias
	// term would show up in the comparisons below.
	for i := 0; i < items; i++ {
		m.AddBias(int32(i), 0.01*float64(i%13))
	}
	return m
}

// The blocked batch kernel must be bit-identical to per-user ScoreAll for
// every user, including when the item count is not a block multiple.
func TestScoreUsersMatchesScoreAll(t *testing.T) {
	for _, tc := range []struct {
		name  string
		items int
		block int
	}{
		{"default-block", 97, 0},
		{"tiny-block-ragged-edge", 101, 7},
		{"block-equals-items", 64, 64},
		{"block-larger-than-items", 33, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testModel(t, 23, tc.items, 6)
			var opts []Option
			if tc.block > 0 {
				opts = append(opts, WithBlockItems(tc.block))
			}
			e := NewEngine(m, opts...)

			users := make([]int32, m.NumUsers())
			for i := range users {
				users[i] = int32(i)
			}
			got := NewScoreRows(len(users), tc.items)
			e.ScoreUsers(users, got)

			want := make([]float64, tc.items)
			for _, u := range users {
				m.ScoreAll(u, want)
				for i, w := range want {
					if got[u][i] != w {
						t.Fatalf("user %d item %d: batch %v != ScoreAll %v", u, i, got[u][i], w)
					}
				}
			}
		})
	}
}

// A float32 model allocates to widen a user row. The blocked kernel must
// pay that once per user, not once per (tile × user).
func TestScoreUsersWidensOncePerUser(t *testing.T) {
	const items, block = 200, 8 // 25 tiles
	f := mf.QuantizeF32(testModel(t, 5, items, 96))
	e := NewEngine(f, WithBlockItems(block))
	users := []int32{0, 3, 4}
	out := NewScoreRows(len(users), items)
	allocs := testing.AllocsPerRun(20, func() { e.ScoreUsers(users, out) })
	if want := float64(len(users) + 1); allocs > want { // the vectors and the slice holding them
		t.Fatalf("ScoreUsers at dim 96 over %d tiles: %v allocations, want at most %v", items/block, allocs, want)
	}
	for ui, u := range users {
		for i, got := range out[ui] {
			if w := f.Score(u, int32(i)); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("user %d item %d: batch %v != Score %v", u, i, got, w)
			}
		}
	}
}

func TestScoreAllDelegates(t *testing.T) {
	m := testModel(t, 4, 31, 3)
	e := NewEngine(m)
	got := make([]float64, m.NumItems())
	want := make([]float64, m.NumItems())
	e.ScoreAll(2, got)
	m.ScoreAll(2, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: %v != %v", i, got[i], want[i])
		}
	}
}

// Non-finite factors must flow through unchanged (the serve path decides
// what to do with them); the kernel itself must not mask or reorder them.
func TestScoreUsersPropagatesNonFinite(t *testing.T) {
	m := testModel(t, 3, 20, 4)
	m.ItemFactors(5)[0] = math.NaN()
	m.ItemFactors(9)[2] = math.Inf(1)
	e := NewEngine(m, WithBlockItems(8))
	out := NewScoreRows(1, m.NumItems())
	e.ScoreUsers([]int32{1}, out)
	if !math.IsNaN(out[0][5]) {
		t.Errorf("item 5 score = %v, want NaN", out[0][5])
	}
	if !math.IsInf(out[0][9], 0) && !math.IsNaN(out[0][9]) {
		t.Errorf("item 9 score = %v, want non-finite", out[0][9])
	}
}

func TestNewScoreRowsShape(t *testing.T) {
	rows := NewScoreRows(3, 7)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if len(r) != 7 || cap(r) != 7 {
			t.Fatalf("row %d: len %d cap %d, want 7/7", i, len(r), cap(r))
		}
	}
	rows[0][6] = 1
	rows[1][0] = 2 // adjacent rows must not alias
	if rows[0][6] != 1 {
		t.Error("rows alias each other")
	}
}

func BenchmarkScoreSingleUserLoop(b *testing.B) {
	m := benchModel(b)
	out := make([]float64, m.NumItems())
	users := benchUsers(m, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range users {
			m.ScoreAll(u, out)
		}
	}
}

func BenchmarkScoreUsersBlocked(b *testing.B) {
	m := benchModel(b)
	users := benchUsers(m, 64)
	out := NewScoreRows(len(users), m.NumItems())
	e := NewEngine(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScoreUsers(users, out)
	}
}

func benchModel(b *testing.B) *mf.Model {
	b.Helper()
	m := mf.MustNew(mf.Config{NumUsers: 512, NumItems: 4096, Dim: 20, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(1), 0.1)
	return m
}

func benchUsers(m *mf.Model, n int) []int32 {
	users := make([]int32, n)
	for i := range users {
		users[i] = int32(i % m.NumUsers())
	}
	return users
}

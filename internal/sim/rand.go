package sim

import (
	"math"
	"math/rand"
	"sync"
)

// Rand is a deterministic random source with the distributions the
// workload generators need. It is safe for concurrent use.
type Rand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRand returns a Rand seeded with seed. The same seed always produces
// the same sequence, which keeps experiments reproducible.
func NewRand(seed int64) *Rand {
	return &Rand{rng: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform integer in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Intn(n)
}

// LogNormal samples a log-normal value with the given parameters of the
// underlying normal (mu, sigma). File-size distributions in scientific
// archives are classically log-normal: many small metadata files, a long
// tail of multi-gigabyte datasets.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	r.mu.Lock()
	n := r.rng.NormFloat64()
	r.mu.Unlock()
	return math.Exp(mu + sigma*n)
}

// FileSize samples a file size in bytes with median `median` and the given
// spread (sigma of the underlying normal; 1.0 is a realistic archive mix).
// The result is clamped to [1, 1<<40].
func (r *Rand) FileSize(median int64, sigma float64) int64 {
	v := r.LogNormal(math.Log(float64(median)), sigma)
	if v < 1 {
		v = 1
	}
	if v > 1<<40 {
		v = 1 << 40
	}
	return int64(v)
}

// Exp samples an exponential value with the given mean, for interarrival
// times of ingests and trigger events.
func (r *Rand) Exp(mean float64) float64 {
	r.mu.Lock()
	e := r.rng.ExpFloat64()
	r.mu.Unlock()
	return e * mean
}

// Zipf returns a Zipf-distributed integer in [0, n) with exponent s > 1.
// Access popularity across collections is Zipfian: a few hot collections
// absorb most reads, which is exactly what domain-value ILM policies key on.
func (r *Rand) Zipf(n uint64, s float64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	z := rand.NewZipf(r.rng, s, 1, n-1)
	return z.Uint64()
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Perm(n)
}

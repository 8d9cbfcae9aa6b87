// Package ilm implements datagrid Information Lifecycle Management
// (paper §2.1): placement and retention driven by the *business value* of
// data rather than mere freshness. The package provides
//
//   - a domain-value model (accesses raise value, time decays it);
//   - tiering policies that map value bands to storage resources;
//   - a planner that compiles a policy into a DGL flow of
//     migrate/replicate/trim/delete steps — ILM processes *are*
//     datagridflows, executed by the matrix engine with full
//     pause/restart/status/provenance support;
//   - generators for the paper's two topologies: the imploding star
//     (archiver domain pulls everything in, e.g. BBSRC-CCLRC) and the
//     exploding star (tiered push from the producing domain, e.g. the
//     CERN CMS experiment); and
//   - execution windows ("an ILM process could only be run at some
//     domains during non-working hours or on weekends").
package ilm

import (
	"math"
	"sync"
	"time"
)

// ValueModel tracks the domain value of logical paths. Each access adds
// one unit that decays exponentially with the configured half-life; the
// value combines the decayed access mass with the object's freshness.
// Values live in [0, 100].
type ValueModel struct {
	// HalfLife of one access's contribution. Default 7 days.
	HalfLife time.Duration
	// FreshnessScale is the age at which the freshness component has
	// decayed to 1/e. Default 30 days.
	FreshnessScale time.Duration
	// AccessWeight and FreshWeight apportion the 100-point scale between
	// access mass and freshness. Defaults 70/30.
	AccessWeight, FreshWeight float64

	mu   sync.Mutex
	mass map[string]decayed
}

type decayed struct {
	value float64   // access mass at time `at`
	at    time.Time // last update instant
}

// NewValueModel returns a model with the default parameters.
func NewValueModel() *ValueModel {
	return &ValueModel{
		HalfLife:       7 * 24 * time.Hour,
		FreshnessScale: 30 * 24 * time.Hour,
		AccessWeight:   70,
		FreshWeight:    30,
		mass:           make(map[string]decayed),
	}
}

func (m *ValueModel) decayFactor(dt time.Duration) float64 {
	if dt <= 0 {
		return 1
	}
	return math.Exp2(-float64(dt) / float64(m.HalfLife))
}

// Record notes one access to path at the given instant.
func (m *ValueModel) Record(path string, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.mass[path]
	if d.at.IsZero() {
		m.mass[path] = decayed{value: 1, at: at}
		return
	}
	d.value = d.value*m.decayFactor(at.Sub(d.at)) + 1
	d.at = at
	m.mass[path] = d
}

// AccessMass returns the decayed access count of path as of now.
func (m *ValueModel) AccessMass(path string, now time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.mass[path]
	if !ok {
		return 0
	}
	return d.value * m.decayFactor(now.Sub(d.at))
}

// Value scores path in [0, 100] combining access mass and the freshness
// of the object created at `created`. The paper's observation — "a high
// value of data freshness will automatically yield a high business value"
// — is the FreshWeight term; the AccessWeight term captures domain
// interest beyond freshness.
func (m *ValueModel) Value(path string, created, now time.Time) float64 {
	mass := m.AccessMass(path, now)
	accessScore := mass / (mass + 3) // saturating: 3 recent accesses ≈ 0.5
	age := now.Sub(created)
	fresh := math.Exp(-float64(age) / float64(m.FreshnessScale))
	v := m.AccessWeight*accessScore + m.FreshWeight*fresh
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}

// Window is a recurring execution window: ILM flows run only inside it.
// Hours are local to the window's reference clock; StartHour == EndHour
// means always open; StartHour > EndHour wraps past midnight (the classic
// "non-working hours" window, e.g. 20→6).
type Window struct {
	// StartHour and EndHour bound the window, [Start, End).
	StartHour, EndHour int
	// Days restricts the window to the listed weekdays (empty = all).
	// For wrapping windows the day is judged at the window's opening.
	Days []time.Weekday
}

func (w Window) dayAllowed(d time.Weekday) bool {
	if len(w.Days) == 0 {
		return true
	}
	for _, x := range w.Days {
		if x == d {
			return true
		}
	}
	return false
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	if w.StartHour == w.EndHour {
		return w.dayAllowed(t.Weekday())
	}
	h := t.Hour()
	if w.StartHour < w.EndHour {
		return h >= w.StartHour && h < w.EndHour && w.dayAllowed(t.Weekday())
	}
	// Wrapping window: open late t.Weekday(), or early in the morning of
	// the day after an allowed opening.
	if h >= w.StartHour {
		return w.dayAllowed(t.Weekday())
	}
	if h < w.EndHour {
		return w.dayAllowed(t.Add(-24 * time.Hour).Weekday())
	}
	return false
}

// NextOpen returns the earliest instant at or after t inside the window.
// The search is bounded to 15 days; a window that never opens within that
// horizon returns t unchanged (degenerate Days configuration).
func (w Window) NextOpen(t time.Time) time.Time {
	if w.Contains(t) {
		return t
	}
	// Advance to the next top of hour, then hour by hour.
	cur := t.Truncate(time.Hour).Add(time.Hour)
	for i := 0; i < 15*24; i++ {
		if w.Contains(cur) {
			return cur
		}
		cur = cur.Add(time.Hour)
	}
	return t
}

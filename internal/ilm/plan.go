package ilm

import (
	"fmt"
	"math"
	"sort"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
)

// Tier maps a value band to a target resource: objects whose domain value
// is at least MinValue (and below the next-higher tier) belong on
// Resource.
type Tier struct {
	// MinValue is the inclusive lower bound of the band.
	MinValue float64
	// Resource is the logical resource that should hold the object.
	Resource string
}

// Policy is one datagrid ILM policy over a collection subtree.
type Policy struct {
	// Name labels the generated flows and provenance.
	Name string
	// Owner is the grid user the generated flow runs as.
	Owner string
	// Scope is the collection subtree the policy governs.
	Scope string
	// Tiers, highest MinValue first after normalization, map value bands
	// to resources. An object below every tier keeps its placement
	// unless DeleteBelow applies.
	Tiers []Tier
	// DeleteBelow removes objects whose value drops under this bound
	// (0 disables deletion — most archives never delete).
	DeleteBelow float64
	// KeepReplica, when set, replicates to the target tier and keeps the
	// old copy instead of migrating (defensive placement).
	KeepReplica bool
	// Window gates execution of the generated flow.
	Window Window
}

// Decision is one planned placement change.
type Decision struct {
	Path   string
	Action string // "migrate", "replicate", "delete"
	From   string // resource (migrate)
	To     string // resource (migrate/replicate)
}

// PlanStats aggregates a plan.
type PlanStats struct {
	Examined    int
	Migrates    int
	Replicas    int
	Deletes     int
	BytesToMove int64
}

// Valuer scores an object's domain value at a given instant.
type Valuer interface {
	Value(e namespace.Entry, now time.Time) float64
}

// ModelValuer adapts a ValueModel to the Valuer interface.
type ModelValuer struct{ Model *ValueModel }

// Value implements Valuer.
func (v ModelValuer) Value(e namespace.Entry, now time.Time) float64 {
	return v.Model.Value(e.Path, e.Created, now)
}

// FreshnessValuer scores by age alone — the traditional HSM behaviour
// the paper contrasts ILM against ("Unlike traditional Hierarchical
// Storage Management (HSM) solutions, which normally use data freshness
// as the most important attribute in determining data placement, ILM
// solutions use data value"). Experiment E11 ablates the two.
type FreshnessValuer struct {
	// Scale is the age at which the score decays to 1/e (default 30d).
	Scale time.Duration
}

// Value implements Valuer: 100 at age zero, decaying exponentially.
func (v FreshnessValuer) Value(e namespace.Entry, now time.Time) float64 {
	scale := v.Scale
	if scale <= 0 {
		scale = 30 * 24 * time.Hour
	}
	age := now.Sub(e.Created)
	if age < 0 {
		age = 0
	}
	return 100 * math.Exp(-float64(age)/float64(scale))
}

// MetaValuer reads the value from a metadata attribute (default "value"),
// for deployments where curators assign business value explicitly.
type MetaValuer struct{ Attr string }

// Value implements Valuer; objects without the attribute score 0.
func (v MetaValuer) Value(e namespace.Entry, _ time.Time) float64 {
	attr := v.Attr
	if attr == "" {
		attr = "value"
	}
	var f float64
	if s, ok := e.Metadata[attr]; ok {
		fmt.Sscanf(s, "%f", &f)
	}
	return f
}

// targetTier returns the resource the value band selects, or "" when no
// tier applies.
func (p *Policy) targetTier(value float64) string {
	best := ""
	bestMin := -1.0
	for _, t := range p.Tiers {
		if value >= t.MinValue && t.MinValue > bestMin {
			best, bestMin = t.Resource, t.MinValue
		}
	}
	return best
}

// Plan examines every object under the policy's scope, scores it with the
// valuer, and emits the placement changes needed. The result is both the
// decision list (for reporting) and a DGL flow that applies it — the
// "interoperable description of the datagrid ILM processes" the paper
// calls for, executable, pausable and auditable like any datagridflow.
func (p *Policy) Plan(g *dgms.Grid, valuer Valuer, now time.Time) ([]Decision, PlanStats, error) {
	var decisions []Decision
	var stats PlanStats
	entries, err := g.Namespace().Search(namespace.Query{Scope: p.Scope, ObjectsOnly: true})
	if err != nil {
		return nil, stats, err
	}
	for _, e := range entries {
		stats.Examined++
		value := valuer.Value(e, now)
		if p.DeleteBelow > 0 && value < p.DeleteBelow {
			decisions = append(decisions, Decision{Path: e.Path, Action: "delete"})
			stats.Deletes++
			continue
		}
		target := p.targetTier(value)
		if target == "" || len(e.Replicas) == 0 {
			continue
		}
		onTarget := false
		for _, r := range e.Replicas {
			if r.Resource == target {
				onTarget = true
				break
			}
		}
		if onTarget {
			continue
		}
		if p.KeepReplica {
			decisions = append(decisions, Decision{Path: e.Path, Action: "replicate", To: target})
			stats.Replicas++
		} else {
			from := e.Replicas[0].Resource
			decisions = append(decisions, Decision{Path: e.Path, Action: "migrate", From: from, To: target})
			stats.Migrates++
		}
		stats.BytesToMove += e.Size
	}
	sort.Slice(decisions, func(i, j int) bool { return decisions[i].Path < decisions[j].Path })
	return decisions, stats, nil
}

// Compile renders a decision list as a DGL flow. Steps use
// onError=continue so one bad object does not strand the rest of the
// lifecycle pass; failures stay visible in step states and provenance.
func (p *Policy) Compile(decisions []Decision) dgl.Flow {
	b := dgl.NewFlow("ilm:" + p.Name)
	for i, d := range decisions {
		var op dgl.Operation
		switch d.Action {
		case "delete":
			op = dgl.Op(dgl.OpDelete, map[string]string{"path": d.Path})
		case "replicate":
			op = dgl.Op(dgl.OpReplicate, map[string]string{"path": d.Path, "to": d.To})
		default:
			op = dgl.Op(dgl.OpMigrate, map[string]string{"path": d.Path, "from": d.From, "to": d.To})
		}
		b.StepWith(dgl.Step{
			Name:      fmt.Sprintf("%s-%04d", d.Action, i),
			OnError:   dgl.OnErrorContinue,
			Operation: op,
		})
	}
	return b.Flow()
}

// ImplodingStar generates the archiver-domain flow: every object under
// scope is replicated onto archiveResource (the BBSRC pattern — "
// information from all the domains in the datagrid is finally pulled
// towards this domain"). When trimSources is set the source replicas are
// dropped afterwards, completing the pull.
func ImplodingStar(g *dgms.Grid, owner, scope, archiveResource string, trimSources bool) (dgl.Flow, error) {
	entries, err := g.Namespace().Search(namespace.Query{Scope: scope, ObjectsOnly: true})
	if err != nil {
		return dgl.Flow{}, err
	}
	b := dgl.NewFlow("imploding-star")
	for i, e := range entries {
		onArchive := false
		for _, r := range e.Replicas {
			if r.Resource == archiveResource {
				onArchive = true
			}
		}
		if onArchive {
			continue
		}
		if trimSources && len(e.Replicas) > 0 {
			b.StepWith(dgl.Step{
				Name:    fmt.Sprintf("pull-%04d", i),
				OnError: dgl.OnErrorContinue,
				Operation: dgl.Op(dgl.OpMigrate, map[string]string{
					"path": e.Path, "from": e.Replicas[0].Resource, "to": archiveResource,
				}),
			})
		} else {
			b.StepWith(dgl.Step{
				Name:    fmt.Sprintf("pull-%04d", i),
				OnError: dgl.OnErrorContinue,
				Operation: dgl.Op(dgl.OpReplicate, map[string]string{
					"path": e.Path, "to": archiveResource,
				}),
			})
		}
	}
	_ = owner
	return b.Flow(), nil
}

// ExplodingStar generates the tiered push flow of the CMS pattern: data
// produced at the source is "replicated in stages at different tiers
// across the globe". tiers[0] replicates from the source, tiers[1] from
// tiers[0], and so on; replication within one tier runs in parallel,
// tiers themselves run sequentially (each stage feeds the next).
func ExplodingStar(g *dgms.Grid, owner, scope string, tiers [][]string) (dgl.Flow, error) {
	entries, err := g.Namespace().Search(namespace.Query{Scope: scope, ObjectsOnly: true})
	if err != nil {
		return dgl.Flow{}, err
	}
	root := dgl.NewFlow("exploding-star")
	for ti, tierResources := range tiers {
		stage := dgl.NewFlow(fmt.Sprintf("tier-%d", ti+1)).Parallel()
		for ri, res := range tierResources {
			perRes := dgl.NewFlow(fmt.Sprintf("to-%s-%d", res, ri))
			for ei, e := range entries {
				params := map[string]string{"path": e.Path, "to": res}
				if ti > 0 {
					// Stage: pull from a tier-(N-1) replica, spreading
					// load round-robin across the previous tier.
					prev := tiers[ti-1]
					params["from"] = prev[(ri+ei)%len(prev)]
				}
				perRes.StepWith(dgl.Step{
					Name:      fmt.Sprintf("rep-%04d", ei),
					OnError:   dgl.OnErrorContinue,
					Operation: dgl.Op(dgl.OpReplicate, params),
				})
			}
			stage.SubFlow(perRes)
		}
		root.SubFlow(stage)
	}
	_ = owner
	return root.Flow(), nil
}

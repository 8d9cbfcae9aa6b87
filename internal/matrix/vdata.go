package matrix

// vdata.go is the engine half of the virtual-data plane (internal/vdata,
// docs/VDATA.md): a pure step's derivation identity is resolved once,
// before execution; a catalog hit grafts the memoized result and skips
// the work, a miss executes and publishes. The catalog and the optional
// fleet-wide lookup hook attach like the other engine extensions
// (store, delegator) — a bare engine is unchanged.

import (
	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
	"datagridflow/internal/provenance"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// VdataRemote resolves a derivation key fleet-wide — the wire layer
// installs a hook that asks the peer the lookup registry names as the
// holder (the wire's vdata verb, docs/WIRE.md). token is the executing
// flow's bearer token, the credential the holder re-verifies tenantID
// against. It is consulted only on a local miss and must be safe for
// concurrent use.
type VdataRemote func(tenantID, token, key string) (vdata.Entry, bool)

// SetVdata attaches (or, with nil, detaches) the virtual-data catalog.
// Pure steps of executions started afterwards memoize through it.
func (e *Engine) SetVdata(c *vdata.Catalog) {
	e.mu.Lock()
	e.vcat = c
	e.mu.Unlock()
}

// Vdata returns the attached catalog, or nil.
func (e *Engine) Vdata() *vdata.Catalog {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.vcat
}

// SetVdataRemote installs (or, with nil, removes) the fleet-wide
// derivation lookup hook, consulted when the local catalog misses.
func (e *Engine) SetVdataRemote(fn VdataRemote) {
	e.mu.Lock()
	e.vremote = fn
	e.mu.Unlock()
}

// VdataLocator names the peer holding a derivation key, without
// fetching the entry — a registry query, not a catalog read. The
// vdata-locality placement policy uses it to route pure subflows to
// their derivation holder (docs/VDATA.md).
type VdataLocator func(key string) (peer string, ok bool)

// SetVdataLocator installs (or, with nil, removes) the holder-location
// hook behind delegation hints.
func (e *Engine) SetVdataLocator(fn VdataLocator) {
	e.mu.Lock()
	e.vlocate = fn
	e.mu.Unlock()
}

func (e *Engine) vdataLocator() VdataLocator {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.vlocate
}

func (e *Engine) vdataHooks() (*vdata.Catalog, VdataRemote) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.vcat, e.vremote
}

// vdataBinding is the derivation identity of one pure step, computed
// once before execution so the key used for the lookup is byte-identical
// to the one used for publication after success.
type vdataBinding struct {
	key    string
	tenant string
	// ctx holds the parameters the key was derived from: the step's first
	// attempt runs on them, and a retry binds into a context of its own.
	ctx     *OpContext
	outputs []string
}

// vdataResolve derives ps's binding under the current scope, binding the
// step's parameters into ctx: the key is hashed from them in the plan's
// slots, and the step's first attempt executes on them rather than
// binding again. It reports false when no catalog (or remote hook) is
// attached or when the step's parameters do not interpolate — execution
// then proceeds normally and surfaces the same interpolation error
// itself.
func (ex *execRun) vdataResolve(ps *planStep, scope *Scope, nodeID string, ctx *OpContext) (vdataBinding, bool) {
	cat, remote := ex.engine.vdataHooks()
	if cat == nil && remote == nil {
		return vdataBinding{}, false
	}
	if err := ex.bind(ctx, &ps.op, scope, nodeID); err != nil {
		return vdataBinding{}, false
	}
	var stack [8]vdata.Binding
	params := stack[:0]
	for i, v := range ctx.vals {
		params = append(params, vdata.Binding{Name: ps.op.slots[i].name, Value: v})
	}
	resources := make([]string, 0, len(ps.outputs))
	for i := range ps.outputs {
		v, err := ps.outputs[i].Render(scope)
		if err != nil {
			return vdataBinding{}, false
		}
		resources = append(resources, v)
	}
	// The declared outputs are the step's resource set in the key tuple:
	// input resources ride in the parameter bindings (the command line
	// names them), and two transformations that bind identically but
	// declare different outputs are different derivations.
	ten := tenant.Canonical(ex.req.User.Name)
	return vdataBinding{
		key:     vdata.KeyOf(ps.op.typ, resources, params, ten),
		tenant:  ten,
		ctx:     ctx,
		outputs: resources,
	}, true
}

// vdataPeerHint names the peer already holding a memoized derivation
// for one of pf's pure steps — the vdata-locality placement hint. Best
// effort by construction: a step whose parameters do not interpolate
// under the delegating scope simply contributes no hint, and a stale
// hint only costs the fallback to least-loaded.
func (ex *execRun) vdataPeerHint(pf *planFlow, scope *Scope) string {
	cat, _ := ex.engine.vdataHooks()
	locate := ex.engine.vdataLocator()
	if cat == nil && locate == nil {
		return ""
	}
	for i := range pf.kids {
		ps := pf.kids[i].step
		if ps == nil || !ps.src.Pure {
			continue
		}
		vd, ok := ex.vdataResolve(ps, scope, "", new(OpContext))
		if !ok {
			continue
		}
		if cat != nil {
			if ent, ok := cat.Lookup(vd.tenant, vd.key); ok && ent.Peer != "" {
				return ent.Peer
			}
		}
		if locate != nil {
			if peer, ok := locate(vd.key); ok && peer != "" {
				return peer
			}
		}
	}
	for i := range pf.kids {
		if child := pf.kids[i].flow; child != nil {
			if h := ex.vdataPeerHint(child, scope); h != "" {
				return h
			}
		}
	}
	return ""
}

// vdataHit consults the catalog (local, then fleet-wide) for vd's
// derivation. On a hit the step is grafted: its result variable is
// restored from the entry, the node is marked skipped with a vdata.hit
// provenance record, and a step.done store record (carrying the
// holder peer) checkpoints it for recovery. Returns true when the step
// was skipped.
func (ex *execRun) vdataHit(vd *vdataBinding, st *dgl.Step, n *node, scope *Scope) bool {
	cat, remote := ex.engine.vdataHooks()
	o := ex.engine.Obs()
	var ent vdata.Entry
	var ok, remoteHit bool
	if cat != nil {
		ent, ok = cat.Lookup(vd.tenant, vd.key)
	}
	if !ok && remote != nil {
		if ent, ok = remote(vd.tenant, ex.req.Token, vd.key); ok {
			remoteHit = true
			if cat != nil {
				// Graft the remote derivation locally: the next lookup —
				// here or from a peer asking this node — hits without a
				// network trip, and the origin peer rides along.
				_ = cat.Publish(ent)
			}
		}
	}
	if !ok {
		o.Counter("vdata_misses_total").Inc()
		return false
	}
	if v, _ := vd.ctx.Lookup("resultVar"); v != "" && ent.Result != "" {
		scope.Set(v, expr.String(ent.Result))
	}
	at := ex.mark(n, StateSkipped)
	o.Counter("vdata_hits_total").Inc()
	o.Counter("scheduler_virtual_data_hits_total").Inc()
	if remoteHit {
		o.Counter("vdata_remote_hits_total").Inc()
	}
	ex.record(at, "vdata.hit", n.id, st.Name, provenance.OutcomeSkipped, "",
		provenance.Attr{Key: "key", Value: vd.key}, provenance.Attr{Key: "peer", Value: ent.Peer})
	ex.stepDone(n, ent.Peer, at)
	return true
}

// vdataPublish memoizes a pure step's completed derivation: the result
// variable's value (when the step declares one) and the binding computed
// before execution, durably when the catalog has a log.
func (ex *execRun) vdataPublish(vd *vdataBinding, st *dgl.Step, n *node, scope *Scope) {
	cat, _ := ex.engine.vdataHooks()
	if cat == nil {
		return
	}
	var result string
	if v, _ := vd.ctx.Lookup("resultVar"); v != "" {
		if val, ok := scope.Lookup(v); ok {
			result = val.AsString()
		}
	}
	// The catalog keeps the bindings as a map.
	params := make(map[string]string, len(vd.ctx.vals))
	vd.ctx.EachParam(func(k, v string) { params[k] = v })
	now := ex.now()
	ent := vdata.Entry{
		Key: vd.key, Tenant: vd.tenant, Op: st.Operation.Type,
		Params: params, Outputs: vd.outputs, Result: result,
		Unix: now.Unix(),
	}
	if err := cat.Publish(ent); err != nil {
		ex.engine.Obs().Counter("vdata_publish_errors_total").Inc()
		return
	}
	ex.record(now, "vdata.publish", n.id, st.Name, "", "", provenance.Attr{Key: "key", Value: vd.key})
}

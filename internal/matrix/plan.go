package matrix

// plan.go lowers a validated dgl.Flow into the form the engine
// interprets. A document fixes, the moment it validates, everything
// about a run except the values its variables will hold: which strings
// are expressions, where each "$name" sits inside each parameter, what
// every status node under a given parent will be called. The plan works
// those out once per execution (once per stored procedure), and run.go
// walks the plan; only the bindings stay late — templates render and
// expressions evaluate against the live scope at the moment a step
// runs, as the paper's late binding asks.
//
// A plan is immutable once built and shared by every iteration, parallel
// foreach shard, retry and rule firing of its run. It is built in slabs:
// one walk of the document counts what it holds, a second fills
// fixed-size slices, so lowering a four-step flow costs a handful of
// allocations however it nests.

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
)

// plan is one lowered flow document.
type plan struct {
	root *planFlow
	// shape sizes the status subtree under the execution's root node.
	shape regionShape
}

// planFlow is one flow node.
type planFlow struct {
	src  *dgl.Flow // the document node: delegation, shards and names read it
	vars []planVar
	cond planExpr // the while guard or switch selector
	iter *planIter
	// before and after are the two rules the engine fires implicitly.
	before, after *planRule
	// kids is the static child table, in document order (flows xor steps).
	kids []planChild
	// first is the region slot of kids[0]; kids[j] has slot first+j.
	first int
	// body, set on while and forEach flows, sizes the status subtree of
	// one iteration: the children belong to the iteration's region, not
	// to the region that holds the loop's own node.
	body *regionShape
}

// planExpr is an expression parsed when the plan was built (or, for a
// parameter, when a handler first evaluated it): the tree, or what
// parsing the text reported — which surfaces where evaluating the text
// would have. Validation parses conditions too, so only a document that
// skipped it plans a condition that carries an error.
type planExpr struct {
	tree *expr.Expr
	err  error
}

func parseExpr(src string) planExpr {
	tree, err := expr.Parse(src)
	return planExpr{tree, err}
}

func (x planExpr) eval(env expr.Env) (expr.Value, error) {
	if x.err != nil {
		return expr.Null, x.err
	}
	return x.tree.Eval(env)
}

// planChild is one entry of a flow's child table: what the child's
// status node is called, and the flow or step behind it.
type planChild struct {
	name string
	// rel is the node's id below its region's root: "/put/ingest".
	rel  string
	flow *planFlow // exactly one of flow and step is set
	step *planStep
	// idx is the child's slot among its region's scopes (a flow) or op
	// contexts (a step).
	idx int
}

// kind is the status node's kind.
func (k *planChild) kind() string {
	if k.flow != nil {
		return "flow"
	}
	return "step"
}

// planVar is one variable declaration, its value a compiled template.
type planVar struct {
	name  string
	value expr.Template
}

// planIter is a forEach's iterate block with its templates compiled.
type planIter struct {
	src   *dgl.Iterate
	in    expr.Template
	conds []expr.Template // the query conditions' values, by index
}

// planRule is a beforeEntry/afterExit rule with its condition parsed.
type planRule struct {
	name    string
	cond    planExpr
	actions []planAction
}

// planAction is one named arm of a rule; op is nil for an arm that only
// names an outcome.
type planAction struct {
	name string
	op   *planOp
}

// planStep is one step.
type planStep struct {
	src           *dgl.Step
	vars          []planVar
	before, after *planRule
	op            planOp
	attempts      int // 1 + retries under the retry policy
	timing        dgl.RetryTiming
	outputs       []expr.Template // a pure step's declared outputs
}

// planOp is an operation with its parameters as ordered slots.
type planOp struct {
	typ   string
	slots []paramSlot
}

// paramSlot is one named parameter. Names are unique within an op: a
// document that repeats one keeps the last value, as a map of them did.
type paramSlot struct {
	name  string
	value expr.Template
	// An expression-valued parameter (setVariable's "expr") is parsed at
	// most once per plan step, the first time a handler evaluates it.
	once sync.Once
	expr planExpr
}

// asExpr returns the slot's raw text parsed as an expression.
func (s *paramSlot) asExpr() planExpr {
	s.once.Do(func() { s.expr = parseExpr(s.value.Src()) })
	return s.expr
}

// slot returns the op's slot for name, or nil (as for every name on the
// nil op of a zero OpContext).
func (o *planOp) slot(name string) *paramSlot {
	if o == nil {
		return nil
	}
	for i := range o.slots {
		if o.slots[i].name == name {
			return &o.slots[i]
		}
	}
	return nil
}

// regionShape sizes the static part of a status tree under one root —
// the execution's root node, or one loop iteration: every node down to
// (and including) the next loop, whose own iterations open regions of
// their own — and what running it once needs besides: a scope for every
// child flow and an op context for every step.
type regionShape struct {
	nodes  int // status nodes in the region, its root not counted
	relLen int // total length of their rel ids
	// scopes a run of the region pushes: one per child flow, after slot 0
	// for the iteration variable when the region is a forEach's body.
	scopes int
	steps  int // steps in the region: each binds its first attempt's context
}

// region is one opened regionShape: the status nodes, scopes and op
// contexts of its members, addressed by slot. A block — what open returns
// for several roots — is their regions one after another in the same
// three slabs.
type region struct {
	nodes  []node
	scopes []Scope
	ctxs   []OpContext
}

// blockSize is how many iterations of a forEach open their regions
// together. The slabs of a block are sized by it, so it bounds what a
// loop holds for iterations it has not run yet, whatever its item count.
const blockSize = 32

// blockOpened, when a test sets it, is told of every block as it opens.
var blockOpened func(owner *planFlow, regions int)

// open allocates the regions under roots — the execution's root node, one
// while iteration of owner, or a block of its forEach iterations — in
// five allocations: status nodes, the backing of every children slice,
// ids, scopes, op contexts. Nodes start pending and unattached: a child
// joins its parent's children when the run reaches it, so a status query
// sees exactly the nodes it saw when each was allocated on arrival.
// Scopes and contexts start zero and each slot is used once — a handler
// may keep its *OpContext or its Scope, so nothing here is ever handed
// out again.
func (sh *regionShape) open(owner *planFlow, roots []*node) region {
	block := region{
		nodes:  make([]node, len(roots)*sh.nodes),
		scopes: make([]Scope, len(roots)*sh.scopes),
		ctxs:   make([]OpContext, len(roots)*sh.steps),
	}
	kids := make([]*node, len(block.nodes)) // backing for every children slice in the block
	idLen := len(roots) * sh.relLen
	for _, root := range roots {
		idLen += sh.nodes * len(root.id)
	}
	var ids strings.Builder
	ids.Grow(idLen)
	for k, root := range roots {
		kids := kids[k*sh.nodes : (k+1)*sh.nodes]
		fillRegion(sh.at(block, k).nodes, kids, owner, root.id, &ids)
		root.mu.Lock()
		root.children = kids[0:0:len(owner.kids)]
		root.mu.Unlock()
	}
	if blockOpened != nil {
		blockOpened(owner, len(roots))
	}
	return block
}

// at returns the k-th region of a block.
func (sh *regionShape) at(block region, k int) region {
	return region{
		nodes:  block.nodes[k*sh.nodes : (k+1)*sh.nodes],
		scopes: block.scopes[k*sh.scopes : (k+1)*sh.scopes],
		ctxs:   block.ctxs[k*sh.steps : (k+1)*sh.steps],
	}
}

// fillRegion initialises the nodes of pf's children and, through every
// child flow that is not a loop, of their descendants in the region.
func fillRegion(nodes []node, kids []*node, pf *planFlow, rootID string, ids *strings.Builder) {
	for j := range pf.kids {
		k := &pf.kids[j]
		at := ids.Len()
		ids.WriteString(rootID)
		ids.WriteString(k.rel)
		nd := &nodes[pf.first+j]
		nd.id, nd.name, nd.kind, nd.state = ids.String()[at:], k.name, k.kind(), StatePending
		if f := k.flow; f != nil && f.body == nil {
			nd.children = kids[f.first : f.first : f.first+len(f.kids)]
			fillRegion(nodes, kids, f, rootID, ids)
		}
	}
}

// attach hangs the status node of pf's i-th child under its parent node
// — the moment the child becomes visible to status queries.
func (r region) attach(pf *planFlow, i int, under *node) *node {
	c := &r.nodes[pf.first+i]
	under.addChild(c)
	return c
}

// iterRegions hands the iterations of a forEach their regions, opening
// them a block at a time: when the first iteration of a block is reached,
// and in order — the workers of a parallel loop pull indices in order but
// arrive here in any, so an arrival opens every block up to its own. A
// block leaves live once its last region is taken; what it allocated then
// lives as long as the iterations running on it (and its status nodes as
// long as the tree).
type iterRegions struct {
	owner *planFlow
	iters []node // the loop's iteration nodes, by index

	mu     sync.Mutex
	opened int         // iterations whose regions have been opened
	live   []liveBlock // seldom more than one
}

// liveBlock is an opened block with regions not yet taken.
type liveBlock struct {
	block       region
	first, left int // the index of its first iteration; regions still to take
}

// take returns the region of iteration i. Every index is taken at most
// once.
func (r *iterRegions) take(i int) region {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i >= r.opened && r.opened < len(r.iters) {
		var roots [blockSize]*node
		n := min(blockSize, len(r.iters)-r.opened)
		for k := range roots[:n] {
			roots[k] = &r.iters[r.opened+k]
		}
		r.live = append(r.live, liveBlock{r.owner.body.open(r.owner, roots[:n]), r.opened, n})
		r.opened += n
	}
	for k := range r.live {
		lb := &r.live[k]
		if i < lb.first || i >= lb.first+blockSize {
			continue
		}
		reg := r.owner.body.at(lb.block, i-lb.first)
		if lb.left--; lb.left == 0 {
			r.live = slices.Delete(r.live, k, k+1) // zeroes the vacated tail: the slabs are let go
		}
		return reg
	}
	panic("matrix: forEach iteration " + strconv.Itoa(i) + " has no region to take: out of range, or taken before")
}

// planSize is what the counting walk found: the length of every slab.
type planSize struct {
	flows, steps, children, vars, rules, actions, ops, slots, iters, shapes, tmpls, relBytes int
}

// countFlow adds f's subtree to the sizes; relLen is the length of f's
// own rel id within its region.
func (z *planSize) countFlow(f *dgl.Flow, relLen int) {
	z.flows++
	z.vars += len(f.Variables)
	z.countRules(f.Logic.Rules)
	if it := f.Logic.Iterate; it != nil {
		z.iters++
		if it.Query != nil {
			z.tmpls += len(it.Query.Conditions)
		}
	}
	if loops(f) {
		z.shapes++
		relLen = 0 // the children hang off an iteration node
	}
	z.children += len(f.Flows) + len(f.Steps)
	for i := range f.Flows {
		c := &f.Flows[i]
		rel := relLen + 1 + len(c.Name)
		z.relBytes += rel
		z.countFlow(c, rel)
	}
	for i := range f.Steps {
		st := &f.Steps[i]
		z.relBytes += relLen + 1 + len(st.Name)
		z.steps++
		z.vars += len(st.Variables)
		z.countRules(st.Rules)
		z.slots += len(st.Operation.Params)
		if st.Pure {
			z.tmpls += len(st.OutputList())
		}
	}
}

func (z *planSize) countRules(rules []dgl.Rule) {
	for i := range rules {
		if r := &rules[i]; implicitRule(r.Name) {
			z.rules++
			z.actions += len(r.Actions)
			for _, a := range r.Actions {
				if a.Operation != nil {
					z.ops++
					z.slots += len(a.Operation.Params)
				}
			}
		}
	}
}

// loops reports whether f's children run once per iteration.
func loops(f *dgl.Flow) bool {
	return f.Logic.Control == dgl.While || f.Logic.Control == dgl.ForEach
}

// implicitRule reports whether the engine fires the named rule itself;
// rules under any other name are never evaluated and are not lowered.
func implicitRule(name string) bool {
	return name == dgl.RuleBeforeEntry || name == dgl.RuleAfterExit
}

// planBuilder holds the slabs while they are being filled. Each take
// hands out the next n entries of one; the counting walk sized them, so
// none ever regrows (and pointers into them stay valid).
type planBuilder struct {
	flows    []planFlow
	steps    []planStep
	children []planChild
	vars     []planVar
	rules    []planRule
	actions  []planAction
	ops      []planOp
	slots    []paramSlot
	iters    []planIter
	shapes   []regionShape
	tmpls    []expr.Template
	rels     strings.Builder
}

func take[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// buildPlan lowers a validated flow. It cannot fail: what validation
// would have rejected (an unparsable condition, an unterminated "${" in
// a parameter) is kept in the plan and reported by the step or flow that
// reaches it, where the interpreter used to discover it.
func buildPlan(f *dgl.Flow) *plan {
	var z planSize
	z.countFlow(f, 0)
	b := &planBuilder{
		flows: make([]planFlow, z.flows), steps: make([]planStep, z.steps),
		children: make([]planChild, z.children), vars: make([]planVar, z.vars),
		rules: make([]planRule, z.rules), actions: make([]planAction, z.actions),
		ops: make([]planOp, z.ops), slots: make([]paramSlot, z.slots),
		iters: make([]planIter, z.iters), shapes: make([]regionShape, z.shapes),
		tmpls: make([]expr.Template, z.tmpls),
	}
	b.rels.Grow(z.relBytes)
	p := &plan{root: &take(&b.flows, 1)[0]}
	b.fillFlow(p.root, f, "", &p.shape)
	return p
}

// fillFlow lowers f, whose own status node has id rel inside the region
// sh is sizing. The children take the next len(kids) slots of their
// region at once — before any grandchild — so they are contiguous and
// one pointer slab can back every children slice; a loop's children
// start the region of its iterations instead.
func (b *planBuilder) fillFlow(pf *planFlow, f *dgl.Flow, rel string, sh *regionShape) {
	pf.src = f
	pf.vars = b.fillVars(f.Variables)
	if f.Logic.Control == dgl.While || f.Logic.Control == dgl.Switch {
		pf.cond = parseExpr(f.Logic.Condition)
	}
	if it := f.Logic.Iterate; it != nil {
		pi := &take(&b.iters, 1)[0]
		pi.src, pi.in = it, expr.CompileTemplate(it.In)
		if it.Query != nil {
			pi.conds = take(&b.tmpls, len(it.Query.Conditions))
			for i, c := range it.Query.Conditions {
				pi.conds[i] = expr.CompileTemplate(c.Value)
			}
		}
		pf.iter = pi
	}
	pf.before, pf.after = b.fillRules(f.Logic.Rules)
	if loops(f) {
		pf.body = &take(&b.shapes, 1)[0]
		rel, sh = "", pf.body
		if f.Logic.Control == dgl.ForEach {
			sh.scopes = 1 // slot 0: the iteration variable's scope
		}
	}
	pf.kids = take(&b.children, len(f.Flows)+len(f.Steps))
	pf.first = sh.nodes
	sh.nodes += len(pf.kids)
	childRel := func(name string) string {
		at := b.rels.Len()
		b.rels.WriteString(rel)
		b.rels.WriteByte('/')
		b.rels.WriteString(name)
		sh.relLen += b.rels.Len() - at
		return b.rels.String()[at:]
	}
	flows := take(&b.flows, len(f.Flows))
	for i := range f.Flows {
		k := &pf.kids[i]
		*k = planChild{name: f.Flows[i].Name, rel: childRel(f.Flows[i].Name), flow: &flows[i], idx: sh.scopes}
		sh.scopes++
		b.fillFlow(k.flow, &f.Flows[i], k.rel, sh)
	}
	steps := take(&b.steps, len(f.Steps))
	for i := range f.Steps {
		k := &pf.kids[len(f.Flows)+i]
		*k = planChild{name: f.Steps[i].Name, rel: childRel(f.Steps[i].Name), step: &steps[i], idx: sh.steps}
		sh.steps++
		b.fillStep(k.step, &f.Steps[i])
	}
}

func (b *planBuilder) fillStep(ps *planStep, st *dgl.Step) {
	ps.src = st
	ps.vars = b.fillVars(st.Variables)
	ps.before, ps.after = b.fillRules(st.Rules)
	b.fillOp(&ps.op, &st.Operation)
	ps.attempts = 1
	if st.OnError == dgl.OnErrorRetry {
		ps.attempts = st.Retries + 1
	}
	ps.timing = st.Timing()
	if st.Pure {
		outs := st.OutputList()
		ps.outputs = take(&b.tmpls, len(outs))
		for i, out := range outs {
			ps.outputs[i] = expr.CompileTemplate(out)
		}
	}
}

func (b *planBuilder) fillVars(vars []dgl.Variable) []planVar {
	out := take(&b.vars, len(vars))
	for i, v := range vars {
		out[i] = planVar{name: v.Name, value: expr.CompileTemplate(v.Value)}
	}
	return out
}

func (b *planBuilder) fillRules(rules []dgl.Rule) (before, after *planRule) {
	for i := range rules {
		r := &rules[i]
		if !implicitRule(r.Name) {
			continue
		}
		pr := &take(&b.rules, 1)[0]
		pr.name = r.Name
		pr.cond = parseExpr(r.Condition)
		pr.actions = take(&b.actions, len(r.Actions))
		for j, a := range r.Actions {
			pr.actions[j].name = a.Name
			if a.Operation != nil {
				pr.actions[j].op = &take(&b.ops, 1)[0]
				b.fillOp(pr.actions[j].op, a.Operation)
			}
		}
		// Validation keeps rule names unique; without it the first wins.
		if r.Name == dgl.RuleBeforeEntry && before == nil {
			before = pr
		} else if r.Name == dgl.RuleAfterExit && after == nil {
			after = pr
		}
	}
	return before, after
}

func (b *planBuilder) fillOp(po *planOp, op *dgl.Operation) {
	po.typ = op.Type
	slots := take(&b.slots, len(op.Params))
	n := 0
	for _, p := range op.Params {
		at := n
		for j := 0; j < n; j++ {
			if slots[j].name == p.Name {
				at = j // a repeated name: the later value wins
			}
		}
		slots[at].name, slots[at].value = p.Name, expr.CompileTemplate(p.Value)
		if at == n {
			n++
		}
	}
	po.slots = slots[:n]
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/expr"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/replica"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/shard"
	"datagridflow/internal/sim"
	"datagridflow/internal/store"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

// firstError keeps the first failure of a sampled call: the sampling
// loop runs on, the family reports the failure when it returns.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// directCalls is the first per-layer family: the workloads' own
// generated inputs (same seed) replayed straight into each layer's
// public functions. The inputs come from all four generators, so the
// family reads the same whichever workload the traced run was for.
func (l *layers) directCalls() error {
	dir, err := mkRunDir(l.o.tmp)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	submitIn := generate(l.o.seed, submitWorkload.gen)
	mixIn := generate(l.o.seed, mixWorkload.gen)
	auth, err := tenant.NewAuthority([]byte("bench-fleet-shared-secret"))
	if err != nil {
		return err
	}
	token, err := auth.Mint(tenantName(0), time.Hour)
	if err != nil {
		return err
	}
	// submitReq(i) is the i-th fleet_submit request as a client sends it.
	submitReq := func(i int64) *dgl.Request {
		t, flow := submitFlow(submitIn, i, submitIn.at(i))
		req := dgl.NewRequest(tenantName(t), "", flow)
		req.Token = token
		return req
	}
	mixReq := func(i int64) *dgl.Request {
		req := dgl.NewAsyncRequest(tenantName(0), "", mixFlow(mixIn, mixIn.at(i)))
		req.Token = token
		return req
	}
	var seq int64
	next := func() int64 { seq++; return seq }

	for _, family := range []func(dir string) error{
		func(string) error { return l.codecCalls(submitReq, next) },
		func(string) error { return l.dglCalls(mixReq, next) },
		func(string) error { return l.controlPlaneCalls(auth, token) },
		func(string) error { return l.engineCalls(submitReq, next) },
		l.storeCalls,
		l.replicaCalls,
		l.vdataCalls,
		func(string) error { return l.wireCalls(next) },
	} {
		if err := family(dir); err != nil {
			return err
		}
	}
	l.obsCalls()
	return nil
}

func (l *layers) codecCalls(submitReq func(int64) *dgl.Request, next func() int64) error {
	encode := func(req *dgl.Request) []byte {
		enc := codec.GetEncoder()
		codec.AppendRequest(enc, req)
		out := append([]byte(nil), enc.Bytes()...)
		codec.PutEncoder(enc)
		return out
	}
	req := submitReq(next())
	payload := encode(req)
	if _, err := codec.DecodeRequest(payload); err != nil {
		return err
	}
	l.set("codec.request_bytes", float64(len(payload)), "B")
	l.timeFast("codec.encode_request_us", func() { encode(req) })
	l.timeFast("codec.decode_request_us", func() { _, _ = codec.DecodeRequest(payload) }) // verified decodable above
	l.set("codec.encode_request_allocs", allocsPer(1000, func() { encode(req) }), "1")
	l.set("codec.decode_request_allocs", allocsPer(1000, func() { _, _ = codec.DecodeRequest(payload) }), "1")

	// The record a store writes most: exec.start, which carries the
	// whole request document.
	doc, err := dgl.Marshal(req)
	if err != nil {
		return err
	}
	rec := store.Record{Type: store.TypeExecStart, ID: "peerA:dgf-000042", Time: time.Now(), Request: string(doc)}
	enc := codec.GetEncoder()
	codec.AppendRecord(enc, &rec)
	recPayload := append([]byte(nil), enc.Bytes()...)
	codec.PutEncoder(enc)
	if _, err := codec.DecodeRecord(recPayload); err != nil {
		return err
	}
	l.timeFast("codec.encode_record_us", func() {
		e := codec.GetEncoder()
		codec.AppendRecordFrame(e, &rec)
		codec.PutEncoder(e)
	})
	l.timeFast("codec.decode_record_us", func() { _, _ = codec.DecodeRecord(recPayload) })
	return nil
}

func (l *layers) dglCalls(mixReq func(int64) *dgl.Request, next func() int64) error {
	req := mixReq(next())
	data, err := dgl.Marshal(req)
	if err != nil {
		return err
	}
	if _, err := dgl.ParseRequest(data); err != nil {
		return err
	}
	l.set("dgl.request_xml_bytes", float64(len(data)), "B")
	l.timeIt("dgl.marshal_xml_us", func() { _, _ = dgl.Marshal(req) })
	l.timeIt("dgl.parse_xml_us", func() { _, _ = dgl.ParseRequest(data) })
	l.timeFast("dgl.validate_us", func() { _ = dgl.ValidateFlow(req.Flow, nil) })
	l.set("dgl.parse_xml_allocs", allocsPer(500, func() { _, _ = dgl.ParseRequest(data) }), "1")
	return nil
}

// controlPlaneCalls covers the layers a request crosses before any
// engine work: tenant, scheduler, shard — and expr, which has no state.
func (l *layers) controlPlaneCalls(auth *tenant.Authority, token string) error {
	reg := obs.NewRegistry()
	if _, err := auth.Verify(token); err != nil {
		return err
	}
	l.timeFast("tenant.verify_us", func() { _, _ = auth.Verify(token) })
	l.set("tenant.verify_allocs", allocsPer(1000, func() { _, _ = auth.Verify(token) }), "1")
	treg := tenant.NewRegistry(tenant.Quota{}, reg)
	name := tenantName(0)
	treg.Register(name, tenant.Quota{Weight: 1, MaxFlows: 1 << 20, SubmitRate: 1e6})
	l.timeFast("tenant.admit_us", func() {
		if treg.AllowSubmit(name) == nil && treg.BeginFlow(name) == nil {
			treg.EndFlow(name)
		}
	})

	adm := scheduler.NewAdmission(fleetInflight, 256, reg)
	ctx := context.Background()
	l.timeFast("scheduler.acquire_release_us", func() {
		if adm.Acquire(ctx, name) == nil {
			adm.Release()
		}
	})

	mgr := shard.NewManager(shard.Config{Self: "peerA", Shards: fleetShards, Obs: reg})
	owners := make(map[int]string, fleetShards)
	for sh := 0; sh < fleetShards; sh++ {
		owners[sh] = "peer" + string(rune('A'+sh%4))
	}
	mgr.SetOwners(owners)
	key := wire.RoutingKey(name, "job-17")
	if _, _, ok := mgr.OwnerOf(key); !ok {
		return fmt.Errorf("shard manager resolves no owner for %s", key)
	}
	l.timeFast("shard.owner_of_us", func() { mgr.OwnerOf(key) })

	// The two conditions the engine_dag flow evaluates.
	env := expr.MapEnv{"it": expr.String("17"), "i": expr.Number(3)}
	conds := []string{`"arm" + ($it % 2)`, "$i < " + strconv.Itoa(dagLoops)}
	for _, c := range conds {
		if _, err := expr.EvalString(c, env); err != nil {
			return err
		}
	}
	flip := 0
	l.timeFast("expr.eval_us", func() { flip ^= 1; _, _ = expr.EvalString(conds[flip], env) })
	return nil
}

// engineCalls covers matrix and dgms on bare engines.
func (l *layers) engineCalls(submitReq func(int64) *dgl.Request, next func() int64) error {
	g, _, err := newGrid(sim.RealClock{}, vfs.Memory, nil)
	if err != nil {
		return err
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/w"); err != nil {
		return err
	}
	e := matrix.NewEngineConfig(g, matrix.Config{})
	var last *dgl.Response
	var fail firstError
	submit := func() {
		resp, err := e.Submit(submitReq(next()))
		if err == nil {
			err = succeeded(resp)
		}
		fail.note(err)
		last = resp
	}
	l.timeIt("matrix.submit_us", submit)
	l.set("matrix.submit_allocs", allocsPer(500, submit), "1")
	if fail.err != nil {
		return fail.err
	}
	id := last.Status.ID
	l.timeFast("matrix.status_us", func() { _, _ = e.Status(id, false) })
	l.timeFast("matrix.status_detail_us", func() { _, _ = e.Status(id, true) })

	dagW := dagWorkload.scaled(0.02)
	dagIn := generate(l.o.seed, dagW.gen)
	inst, err := dagW.build(dagW, dagIn, "")
	if err != nil {
		return err
	}
	defer inst.close()
	l.timeIt("matrix.run_dag_us", func() {
		i := next()
		_, err := inst.op(0, i, dagIn.at(i))
		fail.note(err)
	})
	if fail.err != nil {
		return fail.err
	}

	// dgms on the virtual clock, so the modelled device time is not slept
	// and what is left is the grid's own bookkeeping.
	vg, _, err := newGrid(sim.NewVirtualClock(sim.Epoch), vfs.Disk, nil)
	if err != nil {
		return err
	}
	admin := vg.Admin()
	obj := func(i int64) string { return "/grid/obj-" + strconv.FormatInt(i, 10) }
	var made, tagged, dropped int64
	note := fail.note
	l.timeIt("dgms.ingest_us", func() { made++; note(vg.Ingest(admin, obj(made), 1024, nil, resourceName)) })
	l.timeIt("dgms.set_meta_us", func() { tagged = tagged%made + 1; note(vg.SetMeta(admin, obj(tagged), "tag", "v")) })
	l.timeIt("dgms.delete_us", func() {
		if dropped < made {
			dropped++
			note(vg.Delete(admin, obj(dropped)))
		}
	})
	return fail.err
}

// storeCalls covers the store, and matrix recovery on top of it, on
// the restart_recovery directory this seed generates.
func (l *layers) storeCalls(dir string) error {
	st, err := store.Open(filepath.Join(dir, "append"), store.Options{Binary: true})
	if err != nil {
		return err
	}
	rec := store.Record{Type: store.TypeStepDone, ID: "peerA:dgf-000042", Node: "/job-17/ingest"}
	var fail firstError
	note := fail.note
	l.timeIt("store.append_us", func() { rec.Time = time.Now(); note(st.Append(rec)) })
	batch := make([]store.Record, 16)
	for i := range batch {
		batch[i] = rec
	}
	l.timeIt("store.append_batch16_us", func() { note(st.AppendBatch(batch)) })
	st.Close()
	if fail.err != nil {
		return fail.err
	}

	recW := recoveryWorkload
	recIn := generate(l.o.seed, recW.gen)
	built, err := recW.build(recW, recIn, filepath.Join(dir, "crashed"))
	if err != nil {
		return err
	}
	rc := built.(*recoveryInst)
	defer rc.close()
	// reopen brings the directory back to the recorded bytes and opens
	// it, reporting how long the open (the replay) took.
	reopen := func() (*store.Store, time.Duration) {
		fail.note(rc.prepare(0))
		t0 := time.Now()
		s, err := store.Open(rc.dir, store.Options{Binary: true})
		fail.note(err)
		return s, time.Since(t0)
	}
	l.set("store.open_us", l.sample("store.open_us", 1, func() time.Duration {
		s, d := reopen()
		if s != nil {
			s.Close()
		}
		return d
	}), "us")
	l.set("matrix.recover_us", l.sample("matrix.recover_us", 1, func() time.Duration {
		g, _, err := newGrid(sim.RealClock{}, vfs.Memory, nil)
		s, _ := reopen()
		if fail.note(err); s == nil || err != nil {
			return 0
		}
		defer s.Close()
		e := matrix.NewEngineConfig(g, matrix.Config{})
		e.RegisterOp(gateOp, func(*matrix.OpContext) error { return nil })
		e.SetStore(s)
		t0 := time.Now()
		resumed, err := e.RecoverFromStore()
		d := time.Since(t0)
		fail.note(err)
		for _, ex := range resumed {
			<-ex.Done()
		}
		return d
	}), "us")
	// Compaction deletes the old segments, so restoring lengths is not
	// enough: each call starts from a copy of the recorded directory.
	keep := filepath.Join(dir, "crashed-copy")
	if err := copyDir(rc.dir, keep); err != nil {
		return err
	}
	l.set("store.compact_us", l.sample("store.compact_us", 1, func() time.Duration {
		fail.note(os.RemoveAll(rc.dir))
		fail.note(copyDir(keep, rc.dir))
		s, _ := reopen()
		if s == nil {
			return 0
		}
		defer s.Close()
		t0 := time.Now()
		_, err := s.Compact()
		fail.note(err)
		return time.Since(t0)
	}), "us")
	return fail.err
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	files, err := recordLengths(from)
	if err != nil {
		return err
	}
	for name := range files {
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (l *layers) replicaCalls(dir string) error {
	// One fleet_submit flow's worth of records: start, four steps, end.
	id := "peerA:dgf-000042"
	recs := []store.Record{{Type: store.TypeExecStart, ID: id, Request: "<dataGridRequest/>"}}
	for _, node := range []string{"ingest", "tag", "derive", "drop"} {
		recs = append(recs, store.Record{Type: store.TypeStepDone, ID: id, Node: "/job-17/" + node})
	}
	recs = append(recs, store.Record{Type: store.TypeExecEnd, ID: id})
	block, err := replica.EncodeBlock(recs, true)
	if err != nil {
		return err
	}
	if _, err := replica.DecodeBlock(block); err != nil {
		return err
	}
	l.timeFast("replica.encode_block_us", func() { _, _ = replica.EncodeBlock(recs, true) })
	l.timeFast("replica.decode_block_us", func() { _, _ = replica.DecodeBlock(block) })

	recv, err := replica.NewReceiver(replica.ReceiverConfig{Dir: filepath.Join(dir, "replica"), Binary: true, Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer recv.Close()
	seq := uint64(1)
	var fail firstError
	l.timeIt("replica.apply_us", func() {
		ack := recv.Apply(replica.Frame{Op: replica.OpAppend, Source: "peerA", Seq: seq, Count: len(recs), Block: block})
		if !ack.OK {
			fail.note(fmt.Errorf("replica apply at seq %d: %s", seq, ack.Error))
		}
		seq += uint64(len(recs))
	})
	return fail.err
}

func (l *layers) vdataCalls(dir string) error {
	cat, err := vdata.Open(filepath.Join(dir, "vdata"), obs.NewRegistry())
	if err != nil {
		return err
	}
	defer cat.Close()
	ten := tenantName(0)
	params := func(i int) map[string]string {
		return map[string]string{"command": "transform hot-" + strconv.Itoa(i), "cpuSeconds": "0", "resultVar": "derived"}
	}
	outputs := func(i int) []string { return []string{"/grid/derived/hot-" + strconv.Itoa(i) + ".dat"} }
	entry := func(i int) vdata.Entry {
		return vdata.Entry{Key: vdata.Key(dgl.OpExec, outputs(i), params(i), ten), Tenant: ten, Op: dgl.OpExec,
			Params: params(i), Outputs: outputs(i), Result: "done"}
	}
	for i := 0; i < hotBindings; i++ {
		if err := cat.Publish(entry(i)); err != nil {
			return err
		}
	}
	p, o := params(7), outputs(7)
	key := vdata.Key(dgl.OpExec, o, p, ten)
	if _, ok := cat.Lookup(ten, key); !ok {
		return fmt.Errorf("vdata: published key not found")
	}
	l.timeFast("vdata.key_us", func() { vdata.Key(dgl.OpExec, o, p, ten) })
	l.timeFast("vdata.lookup_us", func() { cat.Lookup(ten, key) })
	fresh := hotBindings
	var fail firstError
	l.timeIt("vdata.publish_us", func() { fresh++; fail.note(cat.Publish(entry(fresh))) })
	return fail.err
}

// wireCalls covers the wire against one bare server on loopback.
func (l *layers) wireCalls(next func() int64) error {
	g, _, err := newGrid(sim.RealClock{}, vfs.Memory, nil)
	if err != nil {
		return err
	}
	srv := wire.NewServerConfig(matrix.NewEngineConfig(g, matrix.Config{}), wire.ServerConfig{MaxInflight: fleetInflight})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	dial := func(xml bool) (*wire.Client, error) {
		c, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		if xml {
			c.DisableBinary()
		}
		if _, err := c.Hello(); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
	bin, err := dial(false)
	if err != nil {
		return err
	}
	defer bin.Close()
	text, err := dial(true)
	if err != nil {
		return err
	}
	defer text.Close()
	noop := func() *dgl.Request {
		flow := dgl.NewFlow("noop-"+strconv.FormatInt(next(), 10)).Step("noop", dgl.Op(dgl.OpNoop, nil)).Flow()
		return dgl.NewRequest("admin", "", flow)
	}
	ctx := context.Background()
	var fail firstError
	submit := func(c *wire.Client, req *dgl.Request, opts ...wire.SubmitOption) {
		res, err := c.Submit(ctx, req, opts...)
		if err == nil {
			for _, resp := range res.Responses {
				if err = succeeded(resp); err != nil {
					break
				}
			}
		}
		fail.note(err)
	}
	l.timeIt("wire.rtt_us", func() { _, err := bin.Hello(); fail.note(err) })
	l.timeIt("wire.submit_noop_us", func() { submit(bin, noop()) })
	l.timeIt("wire.submit_noop_xml_us", func() { submit(text, noop()) })
	l.timeIt("wire.batch16_us", func() {
		rest := make([]*dgl.Request, 15)
		for i := range rest {
			rest[i] = noop()
		}
		submit(bin, noop(), wire.WithBatch(rest...))
	})
	return fail.err
}

// obsCalls times the two metric calls the engine makes around every
// step, by their real names, on a private registry.
func (l *layers) obsCalls() {
	reg := obs.NewRegistry()
	l.timeFast("obs.counter_us", func() { reg.Counter("matrix_steps_total", "op", "ingest").Inc() })
	l.set("obs.counter_allocs", allocsPer(1000, func() { reg.Counter("matrix_steps_total", "op", "ingest").Inc() }), "1")
	l.timeFast("obs.histogram_us", func() { reg.Histogram("matrix_step_seconds", "op", "ingest").Observe(0.001) })
}

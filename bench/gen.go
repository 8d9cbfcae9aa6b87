package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// genSpec sizes one workload's generated input. It is data: the
// generator never learns which workload it serves.
type genSpec struct {
	Ops      int       // length of the op list (used cyclically when a window needs more)
	Kinds    []float64 // share of each op kind; exact counts, shuffled by the seed
	HotShare float64   // share of ops that draw their target from the hot pool
	Hot      int       // hot pool size (memoized bindings, preloaded flows, preloaded objects)
	Tenants  int       // tenant pool
	Names    int       // routing-name pool for ops outside the hot pool
	Payloads int       // payload pool size
	PayloadB int       // bytes per payload
}

// opDesc is one generated operation. The fields are indices into the
// pools of its genSpec; the workload that consumes the list gives them
// meaning (which flow to build, which id to query). Fixed-size fields
// keep the list cheap to hold and trivially serializable.
type opDesc struct {
	Kind    uint8
	Hot     uint8 // 1: Target indexes the hot pool; 0: the op uses a fresh, unique target
	Detail  uint8
	Tenant  uint8
	Name    uint16
	Payload uint16
	Target  uint32
}

// input is everything a workload receives from the seed.
type input struct {
	ops      []opDesc
	payloads []string
}

// generate emits the full input for spec from seed before any window
// opens. Shares are realised as exact counts and then shuffled, so two
// seeds differ in order and in the uniform draws but not in the mix —
// the mix is part of the workload definition, not of the noise.
func generate(seed int64, spec genSpec) *input {
	rng := rand.New(rand.NewSource(seed))
	n := spec.Ops
	ops := make([]opDesc, n)

	at := 0
	for k, share := range spec.Kinds {
		end := at + int(share*float64(n)+0.5)
		if k == len(spec.Kinds)-1 || end > n {
			end = n
		}
		for ; at < end; at++ {
			ops[at].Kind = uint8(k)
		}
	}
	hot := int(spec.HotShare*float64(n) + 0.5)
	for i := range ops {
		if i < hot {
			ops[i].Hot = 1
		}
		ops[i].Detail = uint8(i & 1)
	}
	// Three independent shuffles: kind, hot and detail are uncorrelated.
	rng.Shuffle(n, func(i, j int) { ops[i].Kind, ops[j].Kind = ops[j].Kind, ops[i].Kind })
	rng.Shuffle(n, func(i, j int) { ops[i].Hot, ops[j].Hot = ops[j].Hot, ops[i].Hot })
	rng.Shuffle(n, func(i, j int) { ops[i].Detail, ops[j].Detail = ops[j].Detail, ops[i].Detail })

	for i := range ops {
		o := &ops[i]
		o.Tenant = uint8(rng.Intn(max(spec.Tenants, 1)))
		o.Name = uint16(rng.Intn(max(spec.Names, 1)))
		o.Payload = uint16(rng.Intn(max(spec.Payloads, 1)))
		o.Target = uint32(rng.Intn(max(spec.Hot, 1)))
	}

	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	payloads := make([]string, spec.Payloads)
	for i := range payloads {
		b := make([]byte, spec.PayloadB)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		payloads[i] = string(b)
	}
	return &input{ops: ops, payloads: payloads}
}

// bytes serializes the input; two generations from one seed must be
// byte-identical (gen_test.go).
func (in *input) bytes() []byte {
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, in.ops) // fixed-size struct, bytes.Buffer: cannot fail
	for _, p := range in.payloads {
		buf.WriteString(p)
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

// at returns op i of the list, cycling when the window outlasts it.
func (in *input) at(i int64) opDesc { return in.ops[i%int64(len(in.ops))] }

package namespace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"datagridflow/internal/sim"
)

// refSearch is Search as it stood before conditions were tested on the
// node: the walk copies every entry out, and the copies are filtered. It
// lives here, and only here, as the reference Search is held to.
func refSearch(ns *Namespace, q Query) ([]Entry, error) {
	scope := q.Scope
	if scope == "" {
		scope = "/"
	}
	var out []Entry
	err := ns.walk(scope, func(n *node, path string) error {
		e := n.entry(path)
		if q.ObjectsOnly && n.kind != KindObject {
			return nil
		}
		for _, c := range q.Conditions {
			ok, err := c.test(refAttr(n, e, c.Attr))
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		out = append(out, e)
		if q.Limit > 0 && len(out) >= q.Limit {
			return errStopWalk
		}
		return nil
	})
	if err != nil && err != errStopWalk {
		return nil, err
	}
	return out, nil
}

// refAttr reads an attribute from a copied-out entry, as the reference
// search did, and the kind, owner and domain, which no entry carries,
// from its node.
func refAttr(n *node, e Entry, attr string) (string, bool) {
	switch attr {
	case "name":
		return Base(e.Path), true
	case "path":
		return e.Path, true
	case "owner":
		return n.who.owner, true
	case "domain":
		return n.who.domain, true
	case "kind":
		return n.kind.String(), true
	case "size":
		return strconv.FormatInt(e.Size, 10), true
	default:
		v, ok := e.Metadata[attr]
		return v, ok
	}
}

// randomTree fills a namespace with nested collections and objects
// carrying random owners, sizes, metadata and replicas, and returns the
// collections' paths.
func randomTree(t *testing.T, rng *rand.Rand) (*Namespace, []string) {
	t.Helper()
	pick := func(from ...string) string { return from[rng.Intn(len(from))] }
	ns := New("admin")
	dirs := []string{"/"}
	for i := 0; i < 40; i++ {
		parent, name := dirs[rng.Intn(len(dirs))], pick("a", "b", "c", "run"+strconv.Itoa(i))
		path := parent + "/" + name
		if parent == "/" {
			path = "/" + name
		}
		owner, domain := pick("u1", "u2"), pick("sdsc", "cern")
		if rng.Intn(3) == 0 {
			if ns.MkCollectionAll(path, owner, domain, sim.Epoch) == nil {
				dirs = append(dirs, path)
			}
			continue
		}
		_ = ns.CreateObject(path+pick(".dat", ".pdf", ""), owner, domain, rng.Int63n(3000), sim.Epoch) // a name taken is skipped
	}
	var all []string
	objects := map[string]bool{}
	_ = ns.walk("/", func(n *node, path string) error {
		all = append(all, path)
		objects[path] = n.kind == KindObject
		return nil
	})
	for _, path := range all {
		for _, k := range []string{"stage", "tag", "n"} {
			if rng.Intn(2) == 0 {
				if err := ns.SetMeta(path, k, pick("raw", "10", "9", "x", "")); err != nil {
					t.Fatal(err)
				}
			}
		}
		if objects[path] {
			for _, r := range []string{"disk", "tape"}[:rng.Intn(3)] {
				if err := ns.AddReplica(path, Replica{Resource: r, PhysicalID: path}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return ns, dirs
}

// TestSearchMatchesWalkReference: over random trees and random queries,
// Search returns what copying every entry out and filtering the copies
// returns — the same entries in the same order, or the same error.
func TestSearchMatchesWalkReference(t *testing.T) {
	ops := []QueryOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains, OpPrefix, OpSuffix, OpExists}
	attrs := []string{"name", "path", "owner", "domain", "kind", "size", "stage", "tag", "n", "missing"}
	values := []string{"raw", "10", "9", "x", "", "u1", "sdsc", "object", "collection", "1500", "/a", ".dat", "run"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ns, dirs := randomTree(t, rng)
		for i := 0; i < 200; i++ {
			q := Query{ObjectsOnly: rng.Intn(2) == 0, Limit: rng.Intn(4)}
			if s := rng.Intn(len(dirs) + 1); s < len(dirs) {
				q.Scope = dirs[s]
			}
			for c := rng.Intn(4); c > 0; c-- {
				op := ops[rng.Intn(len(ops))]
				if rng.Intn(50) == 0 {
					op = "bogus" // an error, or none if no entry has the attribute
				}
				q.Conditions = append(q.Conditions, Condition{Attr: attrs[rng.Intn(len(attrs))], Op: op, Value: values[rng.Intn(len(values))]})
			}
			got, err := ns.Search(q)
			want, refErr := refSearch(ns, q)
			if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Search(%+v) = %d entries, %v; reference %d, %v\n got %+v\nwant %+v", seed, q, len(got), err, len(want), refErr, got, want)
			}
		}
	}
}

// FuzzMetadataMatchesMap drives SetMeta, GetMeta and Move
// on four objects from the fuzzer's bytes, and holds the sorted pairs a
// node keeps its metadata in to a map per object: GetMeta, Lookup's
// Metadata and a Search on each attribute answer as the map does, and
// the pairs stay sorted with no key twice. Run as a plain test it
// replays the seed corpus.
func FuzzMetadataMatchesMap(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{0, 0, 0},
		{0, 1, 1, 4, 2, 2, 8, 0, 3, 1, 1, 0, 3, 0, 0, 2, 1, 1},
		{0, 6, 1, 0, 5, 2, 0, 4, 3, 0, 3, 4, 0, 2, 5, 0, 1, 6, 0, 0, 7, 1, 3, 0, 1, 0, 0},
		{3, 0, 0, 0, 2, 9, 7, 0, 0, 1, 2, 0, 5, 6, 7, 9, 2, 2, 13, 4, 4, 1, 2, 3},
	} {
		f.Add(seed)
	}
	keys := []string{"", "a", "a\x00", "ab", "b", "tag", "ü"}
	values := []string{"", "v", "v2", "10", "9", "1e1"}
	ops := []QueryOp{OpEq, OpNe, OpExists, OpPrefix, OpGt}
	f.Fuzz(func(t *testing.T, prog []byte) {
		ns := New("admin")
		for _, dir := range []string{"/a", "/b"} {
			if err := ns.MkCollectionAll(dir, "u", "d", sim.Epoch); err != nil {
				t.Fatal(err)
			}
		}
		var paths [4]string
		var model [4]map[string]string
		for i := range paths {
			paths[i] = "/a/o" + strconv.Itoa(i)
			model[i] = map[string]string{}
			if err := ns.CreateObject(paths[i], "u", "d", 1, sim.Epoch); err != nil {
				t.Fatal(err)
			}
		}
		for len(prog) >= 3 {
			obj, key, value := prog[0]/4%4, keys[int(prog[1])%len(keys)], values[int(prog[2])%len(values)]
			cond := Condition{Attr: key, Op: ops[int(prog[2])/len(values)%len(ops)], Value: value}
			switch prog[0] % 4 {
			case 0:
				if err := ns.SetMeta(paths[obj], key, value); err != nil {
					t.Fatal(err)
				}
				model[obj][key] = value
			case 2:
				v, ok, err := ns.GetMeta(paths[obj], key)
				if want, wantOK := model[obj][key]; err != nil || v != want || ok != wantOK {
					t.Fatalf("GetMeta(%s, %q) = %q, %v, %v; the map holds %q, %v", paths[obj], key, v, ok, err, want, wantOK)
				}
			case 3:
				dst := "/b/" + Base(paths[obj])
				if Parent(paths[obj]) == "/b" {
					dst = "/a/" + Base(paths[obj])
				}
				if err := ns.Move(paths[obj], dst); err != nil {
					t.Fatal(err)
				}
				paths[obj] = dst
			}
			prog = prog[3:]

			var want []string
			for i := range paths {
				e, err := ns.Lookup(paths[i])
				if err != nil {
					t.Fatal(err)
				}
				if (len(model[i]) == 0 && e.Metadata != nil) || (len(model[i]) > 0 && !reflect.DeepEqual(e.Metadata, model[i])) {
					t.Fatalf("Lookup(%s).Metadata = %v; the map holds %v", paths[i], e.Metadata, model[i])
				}
				n, err := ns.resolve(paths[i])
				if err != nil {
					t.Fatal(err)
				}
				for j := 1; j < len(n.meta); j++ {
					if n.meta[j-1].key >= n.meta[j].key {
						t.Fatalf("%s: pairs out of order or repeated: %q", paths[i], n.meta)
					}
				}
				v, ok := model[i][key]
				if match, _ := cond.test(v, ok); match {
					want = append(want, paths[i])
				}
			}
			sort.Strings(want)
			found, err := ns.Search(Query{ObjectsOnly: true, Conditions: []Condition{cond}})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range found {
				got = append(got, e.Path)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%+v) = %q; the maps answer %q", cond, got, want)
			}
		}
	})
}

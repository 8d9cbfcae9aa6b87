package dgms

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"datagridflow/internal/namespace"
	"datagridflow/internal/provenance"
	"datagridflow/internal/vfs"
)

// putCopy writes a copy of an object to res under id, the object's
// clean logical path, and returns the id it used and the simulated write
// time. Keeping physical ids equal to logical paths makes debugging dumps
// readable, but a move leaves physical ids alone: a moved object's copies
// still carry its old path. When such a copy holds id on res, the new
// copy is written under the first free id~N instead. The common case
// costs nothing more than the Put.
func putCopy(res *vfs.Resource, id string, size int64, data []byte) (string, time.Duration, error) {
	d, err := res.Put(id, size, data)
	for n := 1; errors.Is(err, vfs.ErrExists); n++ {
		minted := id + "~" + strconv.Itoa(n)
		if d, err = res.Put(minted, size, data); err == nil {
			return minted, d, nil
		}
	}
	return id, d, err
}

// CreateCollectionAll creates a collection and any missing ancestors.
// Permission is checked on the deepest existing ancestor.
func (g *Grid) CreateCollectionAll(user, path string) error {
	anc := path
	for anc != "/" && !g.ns.Exists(anc) {
		anc = namespace.Parent(anc)
	}
	if err := g.ns.Check(anc, user, namespace.PermWrite); err != nil {
		g.recordErr(user, "collection.create", path, err)
		return err
	}
	domain := g.userDomain(user)
	err := g.publish2(&Event{Type: EventCollection, Path: path, User: user}, func() error {
		return g.ns.MkCollectionAll(path, user, domain, g.clock.Now())
	})
	if err != nil {
		g.recordErr(user, "collection.create", path, err)
		return err
	}
	g.record(user, "collection.create", path, provenance.OutcomeOK, "")
	return nil
}

// userDomain reports the domain a user acts from. The simulation keeps
// this simple: "user@domain" names carry their domain; otherwise the
// user's home domain is unknown ("").
func (g *Grid) userDomain(user string) string {
	for i := 0; i < len(user); i++ {
		if user[i] == '@' {
			return user[i+1:]
		}
	}
	return ""
}

// Ingest writes a new data object: logical entry, one physical replica on
// the named resource, optional fixity digest, event, provenance, cost.
// data may be nil for synthetic (size-only) objects.
func (g *Grid) Ingest(user, path string, size int64, data []byte, resource string) error {
	res, err := g.Resource(resource)
	if err != nil {
		g.recordErr(user, "ingest", path, err)
		return err
	}
	if err := g.ns.Check(namespace.Parent(path), user, namespace.PermWrite); err != nil {
		g.recordErr(user, "ingest", path, err)
		return err
	}
	if err := g.faultCheck(resource); err != nil {
		g.recordErr(user, "ingest", path, err)
		return err
	}
	ev := Event{Type: EventIngest, Path: path, User: user}
	ev.set("resource", resource)
	ev.set("size", strconv.FormatInt(size, 10))
	err = g.publish2(&ev, func() error {
		// The namespace's copy of the clean path is the one copy the
		// catalog keeps: the object's name, its physical id and the
		// resource's key.
		clean, err := g.ns.NewObject(path, user, res.Domain(), size, g.clock.Now())
		if err != nil {
			return err
		}
		id, d, err := putCopy(res, clean, size, data)
		if err != nil {
			_ = g.ns.Remove(clean) // roll back the logical entry
			return err
		}
		g.clock.Sleep(d)
		g.meter.Charge(res.Name(), d)
		rep := namespace.Replica{Resource: resource, PhysicalID: id, StoredAt: g.clock.Now()}
		if g.checksumOnIngest {
			sum, cd, err := res.Checksum(id)
			if err != nil {
				return err
			}
			g.clock.Sleep(cd)
			g.meter.Charge(res.Name(), cd)
			rep.Checksum = sum
		}
		return g.ns.AddReplica(clean, rep)
	})
	if err != nil {
		g.recordErr(user, "ingest", path, err)
		return err
	}
	g.record(user, "ingest", path, provenance.OutcomeOK, "", ev.Details()...)
	return nil
}

// pickSourceReplica returns the first online replica of path, preferring
// faster storage classes so reads come from disk rather than tape when
// both exist.
func (g *Grid) pickSourceReplica(path string) (namespace.Replica, *vfs.Resource, error) {
	reps, err := g.ns.Replicas(path)
	if err != nil {
		return namespace.Replica{}, nil, err
	}
	var best namespace.Replica
	var bestRes *vfs.Resource
	for _, rep := range reps {
		res, err := g.Resource(rep.Resource)
		if err != nil || res.Offline() {
			continue
		}
		if bestRes == nil || res.Class() < bestRes.Class() {
			best, bestRes = rep, res
		}
	}
	if bestRes == nil {
		return namespace.Replica{}, nil, fmt.Errorf("%w: %s", ErrNoReplica, path)
	}
	return best, bestRes, nil
}

// Replicate copies an object onto another resource: read at the best
// available source replica, transfer across the inter-domain network,
// write at the destination.
func (g *Grid) Replicate(user, path, toResource string) error {
	return g.ReplicateFrom(user, path, "", toResource)
}

// ReplicateFrom is Replicate with an explicit source replica — the
// primitive staged (tiered) distribution needs, where tier N must pull
// from tier N-1 rather than from the origin. An empty fromResource
// selects the best source automatically.
func (g *Grid) ReplicateFrom(user, path, fromResource, toResource string) error {
	dst, err := g.Resource(toResource)
	if err != nil {
		g.recordErr(user, "replicate", path, err)
		return err
	}
	if err := g.ns.Check(path, user, namespace.PermWrite); err != nil {
		g.recordErr(user, "replicate", path, err)
		return err
	}
	ev := Event{Type: EventReplicate, Path: path, User: user}
	ev.set("to", toResource)
	err = g.publish2(&ev, func() error {
		srcRep, src, err := g.sourceReplica(path, fromResource)
		if err != nil {
			return err
		}
		if err := g.faultCheck(srcRep.Resource); err != nil {
			return err
		}
		if err := g.faultCheck(toResource); err != nil {
			return err
		}
		ev.set("from", srcRep.Resource)
		data, rd, err := src.Get(srcRep.PhysicalID)
		if err != nil {
			return err
		}
		size, _ := src.Stat(srcRep.PhysicalID)
		g.clock.Sleep(rd)
		g.meter.Charge(srcRep.Resource, rd)
		td, err := g.net.RecordTransfer(src.Domain(), dst.Domain(), size)
		if err != nil {
			return err
		}
		g.clock.Sleep(td)
		id, wd, err := putCopy(dst, copyID(path, srcRep.PhysicalID), size, data)
		if err != nil {
			return err
		}
		g.clock.Sleep(wd)
		g.meter.Charge(dst.Name(), wd)
		err = g.ns.AddReplica(path, namespace.Replica{
			Resource:   toResource,
			PhysicalID: id,
			Checksum:   srcRep.Checksum,
			StoredAt:   g.clock.Now(),
		})
		if err != nil {
			_, _ = dst.Delete(id) // not recorded (a copy there already, or the object gone): drop it
		}
		return err
	})
	if err != nil {
		g.recordErr(user, "replicate", path, err)
		return err
	}
	g.record(user, "replicate", path, provenance.OutcomeOK, "", ev.Details()...)
	return nil
}

// copyID returns the id a new copy of the object at path is first put
// under: its clean path. That is mostly the source copy's id, a string
// the catalog already keeps. Only when it is not (the object was moved
// or registered in place, or the source's id was minted) is the path
// copied, so that the catalog keeps no caller's buffer.
func copyID(path, srcID string) string {
	clean, _ := namespace.CleanPath(path) // the permission check cleaned it before
	if clean == srcID {
		return srcID
	}
	return strings.Clone(clean)
}

// sourceReplica resolves the replica to read from: the named resource
// when given (must exist and be online), otherwise the best available.
func (g *Grid) sourceReplica(path, fromResource string) (namespace.Replica, *vfs.Resource, error) {
	if fromResource == "" {
		return g.pickSourceReplica(path)
	}
	reps, err := g.ns.Replicas(path)
	if err != nil {
		return namespace.Replica{}, nil, err
	}
	for _, rep := range reps {
		if rep.Resource != fromResource {
			continue
		}
		res, err := g.Resource(fromResource)
		if err != nil {
			return namespace.Replica{}, nil, err
		}
		if res.Offline() {
			return namespace.Replica{}, nil, fmt.Errorf("%w: %s source %s offline", ErrNoReplica, path, fromResource)
		}
		return rep, res, nil
	}
	return namespace.Replica{}, nil, fmt.Errorf("%w: %s has no replica on %s", ErrNoReplica, path, fromResource)
}

// Trim removes the replica on the named resource. It refuses to remove
// the last remaining replica unless force is set (the delete path).
func (g *Grid) Trim(user, path, resource string, force bool) error {
	if err := g.ns.Check(path, user, namespace.PermWrite); err != nil {
		g.recordErr(user, "trim", path, err)
		return err
	}
	ev := Event{Type: EventTrim, Path: path, User: user}
	ev.set("resource", resource)
	err := g.publish2(&ev, func() error {
		reps, err := g.ns.Replicas(path)
		if err != nil {
			return err
		}
		var target *namespace.Replica
		for i := range reps {
			if reps[i].Resource == resource {
				target = &reps[i]
				break
			}
		}
		if target == nil {
			return fmt.Errorf("%w: %s has no replica on %s", ErrNoReplica, path, resource)
		}
		if len(reps) <= 1 && !force {
			return fmt.Errorf("%w: %s on %s", ErrLastReplica, path, resource)
		}
		if err := g.faultCheck(resource); err != nil {
			return err
		}
		res, err := g.Resource(resource)
		if err != nil {
			return err
		}
		d, err := res.Delete(target.PhysicalID)
		if err != nil {
			return err
		}
		g.clock.Sleep(d)
		g.meter.Charge(res.Name(), d)
		return g.ns.RemoveReplica(path, resource)
	})
	if err != nil {
		g.recordErr(user, "trim", path, err)
		return err
	}
	g.record(user, "trim", path, provenance.OutcomeOK, "", ev.Details()...)
	return nil
}

// Migrate moves an object's replica from one resource to another: a
// replicate to the destination followed by a trim at the source. This is
// the primitive ILM placement changes are built from.
func (g *Grid) Migrate(user, path, fromResource, toResource string) error {
	if fromResource == toResource {
		return nil
	}
	ev := Event{Type: EventMigrate, Path: path, User: user}
	ev.set("from", fromResource)
	ev.set("to", toResource)
	err := g.publish2(&ev, func() error {
		reps, err := g.ns.Replicas(path)
		if err != nil {
			return err
		}
		hasFrom, hasTo := false, false
		for _, r := range reps {
			if r.Resource == fromResource {
				hasFrom = true
			}
			if r.Resource == toResource {
				hasTo = true
			}
		}
		if !hasFrom {
			return fmt.Errorf("%w: %s has no replica on %s", ErrNoReplica, path, fromResource)
		}
		if !hasTo {
			if err := g.Replicate(user, path, toResource); err != nil {
				return err
			}
		}
		return g.Trim(user, path, fromResource, false)
	})
	if err != nil {
		g.recordErr(user, "migrate", path, err)
		return err
	}
	g.record(user, "migrate", path, provenance.OutcomeOK, "", ev.Details()...)
	return nil
}

// RegisterInPlace maps data that already exists on a physical resource
// into the logical namespace without moving bytes — the SRB deployment
// model: "multiple independent organizations deploy the SRB middleware
// on top of their existing physical storage resources without any
// changes to the existing system". The physical object (by physID)
// must exist on the resource; its size is taken from the store and a
// digest is recorded when ChecksumOnIngest is on.
func (g *Grid) RegisterInPlace(user, path, resource, physID string) error {
	res, err := g.Resource(resource)
	if err != nil {
		g.recordErr(user, "register", path, err)
		return err
	}
	size, ok := res.Stat(physID)
	if !ok {
		err := fmt.Errorf("%w: physical object %q on %s", ErrNoReplica, physID, resource)
		g.recordErr(user, "register", path, err)
		return err
	}
	if err := g.faultCheck(resource); err != nil {
		g.recordErr(user, "register", path, err)
		return err
	}
	if err := g.ns.Check(namespace.Parent(path), user, namespace.PermWrite); err != nil {
		g.recordErr(user, "register", path, err)
		return err
	}
	ev := Event{Type: EventIngest, Path: path, User: user}
	ev.set("resource", resource)
	ev.set("physicalID", physID)
	err = g.publish2(&ev, func() error {
		if err := g.ns.CreateObject(path, user, res.Domain(), size, g.clock.Now()); err != nil {
			return err
		}
		rep := namespace.Replica{Resource: resource, PhysicalID: strings.Clone(physID), StoredAt: g.clock.Now()}
		if g.checksumOnIngest {
			sum, cd, err := res.Checksum(physID)
			if err != nil {
				_ = g.ns.Remove(path)
				return err
			}
			g.clock.Sleep(cd)
			g.meter.Charge(res.Name(), cd)
			rep.Checksum = sum
		}
		if err := g.ns.AddReplica(path, rep); err != nil {
			_ = g.ns.Remove(path)
			return err
		}
		return nil
	})
	if err != nil {
		g.recordErr(user, "register", path, err)
		return err
	}
	g.record(user, "register", path, provenance.OutcomeOK, "", ev.Details()...)
	return nil
}

// Delete removes the object entirely: all physical replicas and the
// logical entry. A physical delete that fails stops it there: the
// replicas before it are gone, that one and the rest stay listed, and so
// does the object.
func (g *Grid) Delete(user, path string) error {
	if err := g.ns.Check(path, user, namespace.PermWrite); err != nil {
		g.recordErr(user, "delete", path, err)
		return err
	}
	err := g.publish2(&Event{Type: EventDelete, Path: path, User: user}, func() error {
		for {
			rep, ok, err := g.ns.FirstReplica(path)
			if err != nil {
				return err
			}
			if !ok {
				return g.ns.Remove(path)
			}
			res, err := g.Resource(rep.Resource)
			if err != nil {
				return err
			}
			d, err := res.Delete(rep.PhysicalID)
			if err != nil {
				return err
			}
			g.clock.Sleep(d)
			g.meter.Charge(rep.Resource, d)
			if err := g.ns.RemoveReplica(path, rep.Resource); err != nil {
				return err
			}
		}
	})
	if err != nil {
		g.recordErr(user, "delete", path, err)
		return err
	}
	g.record(user, "delete", path, provenance.OutcomeOK, "")
	return nil
}

// Get reads the object's bytes from the best online replica. The caller's
// domain determines the network leg; pass "" for a client co-located with
// the replica. Synthetic objects return nil data but still charge the
// simulated read and transfer.
func (g *Grid) Get(user, fromDomain, path string) ([]byte, error) {
	if err := g.ns.Check(path, user, namespace.PermRead); err != nil {
		g.recordErr(user, "get", path, err)
		return nil, err
	}
	rep, res, err := g.pickSourceReplica(path)
	if err != nil {
		g.recordErr(user, "get", path, err)
		return nil, err
	}
	if err := g.faultCheck(rep.Resource); err != nil {
		g.recordErr(user, "get", path, err)
		return nil, err
	}
	data, rd, err := res.Get(rep.PhysicalID)
	if err != nil {
		g.recordErr(user, "get", path, err)
		return nil, err
	}
	size, _ := res.Stat(rep.PhysicalID)
	g.clock.Sleep(rd)
	g.meter.Charge(rep.Resource, rd)
	if fromDomain != "" && fromDomain != res.Domain() {
		td, err := g.net.RecordTransfer(res.Domain(), fromDomain, size)
		if err != nil {
			g.recordErr(user, "get", path, err)
			return nil, err
		}
		g.clock.Sleep(td)
	}
	g.record(user, "get", path, provenance.OutcomeOK, "", provenance.Attr{Key: "resource", Value: rep.Resource})
	ev := Event{Type: EventAccess, Phase: After, Path: path, User: user, Time: g.clock.Now()}
	ev.set("resource", rep.Resource)
	ev.set("domain", fromDomain)
	_ = g.bus.Publish(ev)
	return data, nil
}

// Verify recomputes every replica's checksum and compares it against the
// digest recorded at write time (a replica with none recorded passes) —
// the data-integrity flow run for the UCSD Libraries in the paper. It
// returns the resources whose replica fails.
func (g *Grid) Verify(user, path string) (failed []string, err error) {
	if err := g.ns.Check(path, user, namespace.PermRead); err != nil {
		g.recordErr(user, "verify", path, err)
		return nil, err
	}
	reps, err := g.ns.Replicas(path)
	if err != nil {
		g.recordErr(user, "verify", path, err)
		return nil, err
	}
	for _, rep := range reps {
		res, err := g.Resource(rep.Resource)
		if err != nil {
			return nil, err
		}
		if err := g.faultCheck(rep.Resource); err != nil {
			g.recordErr(user, "verify", path, err)
			return nil, err
		}
		sum, d, err := res.Checksum(rep.PhysicalID)
		if err != nil {
			g.recordErr(user, "verify", path, err)
			return nil, err
		}
		g.clock.Sleep(d)
		g.meter.Charge(rep.Resource, d)
		if !rep.Checksum.IsZero() && rep.Checksum != sum {
			failed = append(failed, rep.Resource)
		}
	}
	g.record(user, "verify", path, provenance.OutcomeOK, "", provenance.Attr{Key: "replicas", Value: strconv.Itoa(len(reps))})
	return failed, nil
}

// SetMeta attaches user-defined metadata to an entry and publishes the
// meta-set event triggers listen for.
func (g *Grid) SetMeta(user, path, attr, value string) error {
	if err := g.ns.Check(path, user, namespace.PermWrite); err != nil {
		g.recordErr(user, "meta.set", path, err)
		return err
	}
	ev := Event{Type: EventMetaSet, Path: path, User: user}
	ev.set("attr", attr)
	ev.set("value", value)
	err := g.publish2(&ev, func() error {
		return g.ns.SetMeta(path, attr, value)
	})
	if err != nil {
		g.recordErr(user, "meta.set", path, err)
		return err
	}
	g.record(user, "meta.set", path, provenance.OutcomeOK, "", ev.Details()...)
	return nil
}

// Move renames a logical path; physical replicas are untouched (their
// physical ids keep the original name), demonstrating location
// independence.
func (g *Grid) Move(user, src, dst string) error {
	if err := g.ns.Check(src, user, namespace.PermWrite); err != nil {
		g.recordErr(user, "move", src, err)
		return err
	}
	ev := Event{Type: EventMove, Path: src, User: user}
	ev.set("dst", dst)
	err := g.publish2(&ev, func() error {
		return g.ns.Move(src, dst)
	})
	if err != nil {
		g.recordErr(user, "move", src, err)
		return err
	}
	g.record(user, "move", src, provenance.OutcomeOK, "", ev.Details()...)
	return nil
}

// Search runs a metadata query against the namespace, filtered to entries
// the user can read.
func (g *Grid) Search(user string, q namespace.Query) ([]namespace.Entry, error) {
	all, err := g.ns.Search(q)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, e := range all {
		if g.ns.Check(e.Path, user, namespace.PermRead) == nil {
			out = append(out, e)
		}
	}
	return out, nil
}

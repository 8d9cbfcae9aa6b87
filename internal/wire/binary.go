package wire

import (
	"encoding/json"
	"math"

	"datagridflow/internal/codec"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// Binary codecs for the wire's envelopes: control, batch, route and
// replicate frames and their replies. The DGL documents
// themselves are encoded by internal/codec's Request/Response codecs;
// the envelopes here carry those payloads as opaque blobs, each sniffed
// independently — a batch may carry XML items beside binary ones, which
// is what lets a server mirror per-item encodings exactly.
//
// Field numbers are frozen (docs/CODEC.md, "Versioning").

func appendControl(e *codec.Encoder, c *Control) {
	e.Begin(codec.MsgControl)
	e.Sym(1, c.Op)
	e.Sym(2, c.ID)
	e.Sym(3, c.Proto)
	// Token is high-entropy and never repeats within a payload: a plain
	// string field, not a symbol-table entry.
	e.Str(4, c.Token)
	e.Uint(5, uint64(c.Limit))
	e.Sym(6, c.Sub)
	e.Sym(7, c.User)
	// Key is a high-entropy derivation hash: a plain string, like Token.
	e.Str(8, c.Key)
	// 9 and 10 carried a vdata publish's entry (JSON, then binary);
	// retired with the publish sub-operation.
	e.Sym(11, c.Name)
	e.Sym(12, c.Addr)
	if c.Load != nil {
		e.Msg(13, func(e *codec.Encoder) { appendLoad(e, c.Load) })
	}
	for _, sh := range c.Shards {
		e.Int(14, int64(sh)) // Int writes zero: shard 0 is a shard
	}
	for _, k := range c.Keys {
		e.Str(15, k) // high-entropy, like Key
	}
}

// appendLoad writes a peer's gossiped load as the fields of a nested
// message.
func appendLoad(e *codec.Encoder, l *scheduler.PeerLoad) {
	e.Uint(1, uint64(l.Inflight))
	e.Uint(2, uint64(l.Queued))
	e.Uint(3, uint64(l.Running))
	e.Uint(4, uint64(l.Capacity))
	for _, r := range l.Resources {
		e.Sym(5, r)
	}
}

// decodeLoad decodes the nested load message d is positioned on into l.
func decodeLoad(d *codec.Decoder, l *scheduler.PeerLoad) {
	end := d.MsgEnter()
	for d.Next() {
		switch d.Field() {
		case 1:
			l.Inflight = int64(d.Uint())
		case 2:
			l.Queued = int64(d.Uint())
		case 3:
			l.Running = int64(d.Uint())
		case 4:
			l.Capacity = int64(d.Uint())
		case 5:
			l.Resources = append(l.Resources, d.Sym())
		default:
			d.Skip()
		}
	}
	d.MsgExit(end)
}

func decodeControl(payload []byte) (Control, error) {
	d, err := codec.NewDecoder(payload, codec.MsgControl)
	if err != nil {
		return Control{}, err
	}
	defer d.Release()
	var c Control
	for d.Next() {
		switch d.Field() {
		case 1:
			c.Op = d.Sym()
		case 2:
			c.ID = d.Sym()
		case 3:
			c.Proto = d.Sym()
		case 4:
			c.Token = d.Str()
		case 5:
			c.Limit = int(d.Uint())
		case 6:
			c.Sub = d.Sym()
		case 7:
			c.User = d.Sym()
		case 8:
			c.Key = d.Str()
		case 11:
			c.Name = d.Sym()
		case 12:
			c.Addr = d.Sym()
		case 13:
			c.Load = new(scheduler.PeerLoad)
			decodeLoad(&d, c.Load)
		case 14:
			c.Shards = append(c.Shards, int(d.Int()))
		case 15:
			c.Keys = append(c.Keys, d.Str())
		default:
			d.Skip()
		}
	}
	return c, d.Err()
}

// decodeEntry decodes the nested vdata.Entry message d is positioned on.
func decodeEntry(d *codec.Decoder) *vdata.Entry {
	end := d.MsgEnter()
	ent := vdata.DecodeEntry(d)
	d.MsgExit(end)
	return &ent
}

func appendControlResult(e *codec.Encoder, r *ControlResult) {
	e.Begin(codec.MsgControlResult)
	e.Bool(1, r.OK)
	e.Sym(2, r.ID)
	e.Str(3, r.Error)
	e.Sym(4, r.Proto)
	for i := range r.Executions {
		x := &r.Executions[i]
		e.Msg(5, func(e *codec.Encoder) {
			e.Sym(1, x.ID)
			e.Sym(2, x.Name)
			e.Sym(3, x.State)
			e.Sym(4, x.User)
		})
	}
	// Metrics stay a JSON blob: obs.Snapshot is operator-facing and
	// cold-path, not worth a binary schema.
	e.Blob(6, r.Metrics)
	if r.Store != nil {
		s := r.Store
		e.Msg(7, func(e *codec.Encoder) {
			e.Uint(1, uint64(s.Segments))
			e.Uint(2, uint64(s.Records))
			e.Uint(3, uint64(s.ReplayRecords))
			e.Uint(4, uint64(s.Live))
			e.Uint(5, uint64(s.Passivated))
			e.Uint(6, uint64(s.Resident))
			e.Uint(7, uint64(s.SnapshotLag))
			e.Str(8, s.Failed)
			if c := s.Compaction; c != nil {
				e.Msg(9, func(e *codec.Encoder) {
					e.Uint(1, uint64(c.SegmentsBefore))
					e.Uint(2, uint64(c.RecordsBefore))
					e.Uint(3, uint64(c.RecordsKept))
					e.Uint(4, uint64(c.RecordsDropped))
				})
			}
			e.Uint(10, uint64(s.Pending))
		})
	}
	if o := r.Owner; o != nil {
		e.Msg(8, func(e *codec.Encoder) {
			e.Sym(1, o.ID)
			e.Sym(2, o.Peer)
			e.Sym(3, o.Addr)
			e.Uint(4, uint64(o.Shard))
			e.Sym(5, o.Source)
		})
	}
	if rp := r.Repl; rp != nil {
		e.Msg(9, func(e *codec.Encoder) {
			e.Sym(1, rp.Mode)
			e.Uint(2, rp.Seq)
			for i := range rp.Followers {
				f := &rp.Followers[i]
				e.Msg(3, func(e *codec.Encoder) {
					e.Sym(1, f.Peer)
					e.Uint(2, f.AckedSeq)
				})
			}
			for i := range rp.Sources {
				src := &rp.Sources[i]
				e.Msg(4, func(e *codec.Encoder) {
					e.Sym(1, src.Source)
					e.Uint(2, src.LastSeq)
					e.Uint(3, uint64(src.Live))
					e.Bool(4, src.Promoted)
				})
			}
		})
	}
	// 10 was the tenant a hello's token verified to; retired.
	if t := r.Tenants; t != nil {
		e.Msg(11, func(e *codec.Encoder) {
			e.Bool(1, t.Enabled)
			e.Bool(2, t.Auth)
			e.Bool(3, t.Require)
			e.Uint(4, uint64(t.Registered))
			for i := range t.Tenants {
				row := &t.Tenants[i]
				e.Msg(5, func(e *codec.Encoder) {
					e.Sym(1, row.Name)
					// Weight crosses as its IEEE-754 bits: the codec has no
					// float wire type and the schema note in docs/CODEC.md
					// records the convention.
					e.Uint(2, math.Float64bits(row.Weight))
					e.Uint(3, uint64(row.Flows))
					e.Uint(4, uint64(row.StoreBytes))
					e.Uint(5, uint64(row.Delegations))
				})
			}
		})
	}
	if v := r.Vdata; v != nil {
		e.Msg(12, func(e *codec.Encoder) {
			e.Bool(1, v.Enabled)
			e.Uint(2, uint64(v.Entries))
			e.Uint(3, uint64(v.Tenants))
			e.Uint(4, v.Publishes)
			e.Uint(5, v.Invalidations)
			e.Bool(6, v.Durable)
			e.Bool(7, v.Found)
			e.Uint(8, uint64(v.Removed))
			// 9 was the entry as a JSON blob; retired.
			if v.Entry != nil {
				e.Msg(10, func(e *codec.Encoder) { vdata.AppendEntry(e, v.Entry) })
			}
		})
	}
	for i := range r.Peers {
		p := &r.Peers[i]
		e.Msg(13, func(e *codec.Encoder) {
			e.Sym(1, p.Name)
			e.Sym(2, p.Addr)
			// Float bits, as TenantsInfo.Weight crosses.
			e.Uint(3, math.Float64bits(p.AgeSeconds))
			e.Msg(4, func(e *codec.Encoder) { appendLoad(e, &p.Load) })
		})
	}
	for sh, holder := range r.Owners {
		e.Msg(14, func(e *codec.Encoder) {
			e.Uint(1, uint64(sh))
			e.Sym(2, holder)
		})
	}
}

func decodeControlResult(payload []byte) (ControlResult, error) {
	d, err := codec.NewDecoder(payload, codec.MsgControlResult)
	if err != nil {
		return ControlResult{}, err
	}
	defer d.Release()
	var r ControlResult
	for d.Next() {
		switch d.Field() {
		case 1:
			r.OK = d.Bool()
		case 2:
			r.ID = d.Sym()
		case 3:
			r.Error = d.Str()
		case 4:
			r.Proto = d.Sym()
		case 5:
			var x ExecutionInfo
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					x.ID = d.Sym()
				case 2:
					x.Name = d.Sym()
				case 3:
					x.State = d.Sym()
				case 4:
					x.User = d.Sym()
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			r.Executions = append(r.Executions, x)
		case 6:
			r.Metrics = json.RawMessage(append([]byte(nil), d.Blob()...))
		case 7:
			s := &StoreInfo{}
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					s.Segments = int(d.Uint())
				case 2:
					s.Records = int(d.Uint())
				case 3:
					s.ReplayRecords = int(d.Uint())
				case 4:
					s.Live = int(d.Uint())
				case 5:
					s.Passivated = int(d.Uint())
				case 6:
					s.Resident = int(d.Uint())
				case 7:
					s.SnapshotLag = int(d.Uint())
				case 8:
					s.Failed = d.Str()
				case 9:
					c := &CompactionInfo{}
					end := d.MsgEnter()
					for d.Next() {
						switch d.Field() {
						case 1:
							c.SegmentsBefore = int(d.Uint())
						case 2:
							c.RecordsBefore = int(d.Uint())
						case 3:
							c.RecordsKept = int(d.Uint())
						case 4:
							c.RecordsDropped = int(d.Uint())
						default:
							d.Skip()
						}
					}
					d.MsgExit(end)
					s.Compaction = c
				case 10:
					s.Pending = int(d.Uint())
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			r.Store = s
		case 8:
			o := &OwnerInfo{}
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					o.ID = d.Sym()
				case 2:
					o.Peer = d.Sym()
				case 3:
					o.Addr = d.Sym()
				case 4:
					o.Shard = int(d.Uint())
				case 5:
					o.Source = d.Sym()
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			r.Owner = o
		case 9:
			rp := &ReplInfo{}
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					rp.Mode = d.Sym()
				case 2:
					rp.Seq = d.Uint()
				case 3:
					var f ReplFollowerInfo
					end := d.MsgEnter()
					for d.Next() {
						switch d.Field() {
						case 1:
							f.Peer = d.Sym()
						case 2:
							f.AckedSeq = d.Uint()
						default:
							d.Skip()
						}
					}
					d.MsgExit(end)
					rp.Followers = append(rp.Followers, f)
				case 4:
					var src ReplSourceInfo
					end := d.MsgEnter()
					for d.Next() {
						switch d.Field() {
						case 1:
							src.Source = d.Sym()
						case 2:
							src.LastSeq = d.Uint()
						case 3:
							src.Live = int(d.Uint())
						case 4:
							src.Promoted = d.Bool()
						default:
							d.Skip()
						}
					}
					d.MsgExit(end)
					rp.Sources = append(rp.Sources, src)
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			r.Repl = rp
		case 11:
			t := &TenantsInfo{}
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					t.Enabled = d.Bool()
				case 2:
					t.Auth = d.Bool()
				case 3:
					t.Require = d.Bool()
				case 4:
					t.Registered = int(d.Uint())
				case 5:
					var row tenant.Info
					end := d.MsgEnter()
					for d.Next() {
						switch d.Field() {
						case 1:
							row.Name = d.Sym()
						case 2:
							row.Weight = math.Float64frombits(d.Uint())
						case 3:
							row.Flows = int(d.Uint())
						case 4:
							row.StoreBytes = int64(d.Uint())
						case 5:
							row.Delegations = int(d.Uint())
						default:
							d.Skip()
						}
					}
					d.MsgExit(end)
					t.Tenants = append(t.Tenants, row)
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			r.Tenants = t
		case 12:
			v := &VdataInfo{}
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					v.Enabled = d.Bool()
				case 2:
					v.Entries = int(d.Uint())
				case 3:
					v.Tenants = int(d.Uint())
				case 4:
					v.Publishes = d.Uint()
				case 5:
					v.Invalidations = d.Uint()
				case 6:
					v.Durable = d.Bool()
				case 7:
					v.Found = d.Bool()
				case 8:
					v.Removed = int(d.Uint())
				case 10:
					v.Entry = decodeEntry(&d)
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			r.Vdata = v
		case 13:
			var p PeerInfo
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					p.Name = d.Sym()
				case 2:
					p.Addr = d.Sym()
				case 3:
					p.AgeSeconds = math.Float64frombits(d.Uint())
				case 4:
					decodeLoad(&d, &p.Load)
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			r.Peers = append(r.Peers, p)
		case 14:
			var sh int
			var holder string
			end := d.MsgEnter()
			for d.Next() {
				switch d.Field() {
				case 1:
					sh = int(d.Uint())
				case 2:
					holder = d.Sym()
				default:
					d.Skip()
				}
			}
			d.MsgExit(end)
			if r.Owners == nil {
				r.Owners = make(map[int]string)
			}
			r.Owners[sh] = holder
		default:
			d.Skip()
		}
	}
	return r, d.Err()
}

// appendBatchStart begins a batch envelope and appendBatchItem adds one
// pre-encoded request document (binary or XML — each is sniffed on its
// own on the receiving side): items are appended as they are encoded,
// so the caller never collects (and re-copies) the full item set.
func appendBatchStart(e *codec.Encoder, user, token string) {
	e.Begin(codec.MsgBatch)
	e.Sym(1, user)
	e.Str(3, token)
}

func appendBatchItem(e *codec.Encoder, item []byte) {
	e.Blob(2, item)
}

// decodeBatch returns the envelope's user and its item payloads. The
// item slices alias the frame payload — valid for the request's
// handling, which never outlives the frame. Transient decode: the
// envelope is almost entirely item blobs, and the shared-string copy a
// regular decoder takes up front would duplicate all of them to back
// the one user symbol.
func decodeBatch(payload []byte) (user, token string, items [][]byte, err error) {
	d, derr := codec.NewDecoderTransient(payload, codec.MsgBatch)
	if derr != nil {
		return "", "", nil, derr
	}
	defer d.Release()
	for d.Next() {
		switch d.Field() {
		case 1:
			user = d.Sym()
		case 2:
			items = append(items, d.Blob())
		case 3:
			token = d.Str()
		default:
			d.Skip()
		}
	}
	return user, token, items, d.Err()
}

// appendBatchResult begins a batch reply; appendBatchResponse adds one
// pre-encoded response document, positionally matching the request's
// items: the server answers them one at a time.
func appendBatchResult(e *codec.Encoder, ok bool, errText string) {
	e.Begin(codec.MsgBatchResult)
	e.Bool(1, ok)
	e.Str(2, errText)
}

func appendBatchResponse(e *codec.Encoder, response []byte) {
	e.Blob(3, response)
}

func decodeBatchResult(payload []byte) (ok bool, errText string, responses [][]byte, err error) {
	d, derr := codec.NewDecoderTransient(payload, codec.MsgBatchResult)
	if derr != nil {
		return false, "", nil, derr
	}
	defer d.Release()
	for d.Next() {
		switch d.Field() {
		case 1:
			ok = d.Bool()
		case 2:
			errText = d.Str()
		case 3:
			responses = append(responses, d.Blob())
		default:
			d.Skip()
		}
	}
	return ok, errText, responses, d.Err()
}

// appendRoute encodes a routing envelope. The embedded request document
// is an opaque blob, sniffed by the receiver.
func appendRoute(e *codec.Encoder, rt *Route) {
	e.Begin(codec.MsgRoute)
	e.Sym(1, rt.User)
	e.Str(2, rt.Token)
	e.Str(3, rt.Request)
	e.Uint(4, uint64(rt.Shard))
	e.Sym(5, rt.Origin)
	e.Sym(6, rt.ParentExec)
	e.Sym(7, rt.ParentNode)
}

// decodeRoute decodes a binary routing envelope. Transient decode: the
// payload is almost entirely the request document, which the regular
// decoder's shared-string copy would duplicate.
func decodeRoute(payload []byte) (Route, error) {
	d, err := codec.NewDecoderTransient(payload, codec.MsgRoute)
	if err != nil {
		return Route{}, err
	}
	defer d.Release()
	var rt Route
	for d.Next() {
		switch d.Field() {
		case 1:
			rt.User = d.Sym()
		case 2:
			rt.Token = d.Str()
		case 3:
			rt.Request = d.Str()
		case 4:
			rt.Shard = int(d.Uint())
		case 5:
			rt.Origin = d.Sym()
		case 6:
			rt.ParentExec = d.Sym()
		case 7:
			rt.ParentNode = d.Sym()
		default:
			d.Skip()
		}
	}
	return rt, d.Err()
}

func appendRouteResult(e *codec.Encoder, r *RouteResult) {
	e.Begin(codec.MsgRouteResult)
	e.Bool(1, r.OK)
	e.Str(2, r.Error)
	e.Bool(3, r.NotOwner)
	e.Sym(4, r.Owner)
	e.Blob(5, r.Response)
}

// beginRouteReply starts the reply to an accepted route: OK, then the
// response document, which the caller writes into the envelope in place
// and closes with EndBlob(mark) — the bytes appendRouteResult writes for
// RouteResult{OK: true, Response: doc}.
func beginRouteReply(e *codec.Encoder) (mark int) {
	e.Begin(codec.MsgRouteResult)
	e.Bool(1, true)
	return e.BeginBlob(5)
}

// decodeRouteResult decodes a route reply. Transient decode: the
// payload is almost entirely the response document, whose bytes
// Response aliases — valid while the payload is.
func decodeRouteResult(payload []byte) (RouteResult, error) {
	d, err := codec.NewDecoderTransient(payload, codec.MsgRouteResult)
	if err != nil {
		return RouteResult{}, err
	}
	defer d.Release()
	var r RouteResult
	for d.Next() {
		switch d.Field() {
		case 1:
			r.OK = d.Bool()
		case 2:
			r.Error = d.Str()
		case 3:
			r.NotOwner = d.Bool()
		case 4:
			r.Owner = d.Sym()
		case 5:
			r.Response = d.Blob()
		default:
			d.Skip()
		}
	}
	return r, d.Err()
}

// appendReplicate encodes a replication envelope. The record block —
// binary record frames — rides as an opaque blob.
func appendReplicate(e *codec.Encoder, f *Replicate) {
	e.Begin(codec.MsgReplicate)
	e.Sym(1, f.Op)
	e.Sym(2, f.Source)
	e.Uint(3, f.Seq)
	e.Uint(4, uint64(f.Count))
	e.Blob(5, f.Block)
	// Field 6 is retired (docs/CODEC.md): the decoder skips it.
}

// decodeReplicate decodes a binary replication envelope. Transient
// decode: the payload is almost entirely the record block, and the
// shared-string copy a regular decoder takes up front would duplicate
// it to back a handful of symbols. The returned frame's Block aliases
// the payload — valid for the frame's handling, which applies the
// block into the replica store before the reply is written.
func decodeReplicate(payload []byte) (Replicate, error) {
	d, derr := codec.NewDecoderTransient(payload, codec.MsgReplicate)
	if derr != nil {
		return Replicate{}, derr
	}
	defer d.Release()
	var f Replicate
	for d.Next() {
		switch d.Field() {
		case 1:
			f.Op = d.Sym()
		case 2:
			f.Source = d.Sym()
		case 3:
			f.Seq = d.Uint()
		case 4:
			f.Count = int(d.Uint())
		case 5:
			f.Block = d.Blob()
		default:
			d.Skip()
		}
	}
	return f, d.Err()
}

func appendReplicateResult(e *codec.Encoder, r *ReplicateResult) {
	e.Begin(codec.MsgReplicateResult)
	e.Bool(1, r.OK)
	e.Uint(2, r.AckSeq)
	e.Bool(3, r.NeedSnapshot)
	e.Str(4, r.Error)
}

// decodeReplicateResult decodes a replication ack. Transient decode: an
// ack holds no string but an error, so an ok one allocates nothing.
func decodeReplicateResult(payload []byte) (ReplicateResult, error) {
	d, err := codec.NewDecoderTransient(payload, codec.MsgReplicateResult)
	if err != nil {
		return ReplicateResult{}, err
	}
	defer d.Release()
	var r ReplicateResult
	for d.Next() {
		switch d.Field() {
		case 1:
			r.OK = d.Bool()
		case 2:
			r.AckSeq = d.Uint()
		case 3:
			r.NeedSnapshot = d.Bool()
		case 4:
			r.Error = d.Str()
		default:
			d.Skip()
		}
	}
	return r, d.Err()
}

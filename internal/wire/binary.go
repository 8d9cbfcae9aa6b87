package wire

import (
	"encoding/json"
	"math"

	"datagridflow/internal/codec"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// Binary codecs for the wire's envelopes: control, batch, delegate,
// route and replicate frames and their replies. The DGL documents
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
	e.Str(9, c.Data)
}

func decodeControl(payload []byte) (Control, error) {
	d, err := codec.NewDecoder(payload, codec.MsgControl)
	if err != nil {
		return Control{}, err
	}
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
		case 9:
			c.Data = d.Str()
		default:
			d.Skip()
		}
	}
	return c, d.Err()
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
	e.Sym(10, r.Tenant)
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
			if v.Entry != nil {
				// The entry stays a JSON blob: cold-path catalog metadata,
				// like the metrics snapshot (docs/CODEC.md).
				if raw, err := json.Marshal(v.Entry); err == nil {
					e.Blob(9, raw)
				}
			}
		})
	}
}

func decodeControlResult(payload []byte) (ControlResult, error) {
	d, err := codec.NewDecoder(payload, codec.MsgControlResult)
	if err != nil {
		return ControlResult{}, err
	}
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
			d.Msg(func(d *codec.Decoder) {
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
			})
			r.Executions = append(r.Executions, x)
		case 6:
			r.Metrics = json.RawMessage(append([]byte(nil), d.Blob()...))
		case 7:
			s := &StoreInfo{}
			d.Msg(func(d *codec.Decoder) {
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
						d.Msg(func(d *codec.Decoder) {
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
						})
						s.Compaction = c
					case 10:
						s.Pending = int(d.Uint())
					default:
						d.Skip()
					}
				}
			})
			r.Store = s
		case 8:
			o := &OwnerInfo{}
			d.Msg(func(d *codec.Decoder) {
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
			})
			r.Owner = o
		case 9:
			rp := &ReplInfo{}
			d.Msg(func(d *codec.Decoder) {
				for d.Next() {
					switch d.Field() {
					case 1:
						rp.Mode = d.Sym()
					case 2:
						rp.Seq = d.Uint()
					case 3:
						var f ReplFollowerInfo
						d.Msg(func(d *codec.Decoder) {
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
						})
						rp.Followers = append(rp.Followers, f)
					case 4:
						var src ReplSourceInfo
						d.Msg(func(d *codec.Decoder) {
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
						})
						rp.Sources = append(rp.Sources, src)
					default:
						d.Skip()
					}
				}
			})
			r.Repl = rp
		case 10:
			r.Tenant = d.Sym()
		case 11:
			t := &TenantsInfo{}
			d.Msg(func(d *codec.Decoder) {
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
						d.Msg(func(d *codec.Decoder) {
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
						})
						t.Tenants = append(t.Tenants, row)
					default:
						d.Skip()
					}
				}
			})
			r.Tenants = t
		case 12:
			v := &VdataInfo{}
			d.Msg(func(d *codec.Decoder) {
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
					case 9:
						ent := &vdata.Entry{}
						if err := json.Unmarshal(d.Blob(), ent); err == nil {
							v.Entry = ent
						}
					default:
						d.Skip()
					}
				}
			})
			r.Vdata = v
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

// appendDelegate encodes a delegation envelope. The embedded request
// document rides as an opaque blob (codec.RequestDoc from the
// federation layer); the receiver sniffs it.
func appendDelegate(e *codec.Encoder, dl *Delegate) {
	e.Begin(codec.MsgDelegate)
	e.Sym(1, dl.User)
	e.Blob(2, []byte(dl.Request))
	e.Sym(3, dl.Origin)
	e.Sym(4, dl.ParentExec)
	e.Sym(5, dl.ParentNode)
	e.Str(6, dl.Token)
}

func decodeDelegate(payload []byte) (Delegate, error) {
	d, err := codec.NewDecoder(payload, codec.MsgDelegate)
	if err != nil {
		return Delegate{}, err
	}
	var dl Delegate
	for d.Next() {
		switch d.Field() {
		case 1:
			dl.User = d.Sym()
		case 2:
			dl.Request = string(d.Blob())
		case 3:
			dl.Origin = d.Sym()
		case 4:
			dl.ParentExec = d.Sym()
		case 5:
			dl.ParentNode = d.Sym()
		case 6:
			dl.Token = d.Str()
		default:
			d.Skip()
		}
	}
	return dl, d.Err()
}

func appendDelegateResult(e *codec.Encoder, r *DelegateResult) {
	e.Begin(codec.MsgDelegateResult)
	e.Bool(1, r.OK)
	e.Str(2, r.Error)
	e.Sym(3, r.ID)
	e.Blob(4, []byte(r.Status))
}

func decodeDelegateResult(payload []byte) (DelegateResult, error) {
	d, err := codec.NewDecoder(payload, codec.MsgDelegateResult)
	if err != nil {
		return DelegateResult{}, err
	}
	var r DelegateResult
	for d.Next() {
		switch d.Field() {
		case 1:
			r.OK = d.Bool()
		case 2:
			r.Error = d.Str()
		case 3:
			r.ID = d.Sym()
		case 4:
			r.Status = string(d.Blob())
		default:
			d.Skip()
		}
	}
	return r, d.Err()
}

// appendRoute encodes a routing envelope. The embedded request document
// is an opaque blob, sniffed by the receiver like a delegate's.
func appendRoute(e *codec.Encoder, rt *Route) {
	e.Begin(codec.MsgRoute)
	e.Sym(1, rt.User)
	e.Str(2, rt.Token)
	e.Str(3, rt.Request)
	e.Uint(4, uint64(rt.Shard))
	e.Sym(5, rt.Origin)
}

// decodeRoute decodes a binary routing envelope. Transient decode: the
// payload is almost entirely the request document, which the regular
// decoder's shared-string copy would duplicate.
func decodeRoute(payload []byte) (Route, error) {
	d, err := codec.NewDecoderTransient(payload, codec.MsgRoute)
	if err != nil {
		return Route{}, err
	}
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
	for _, peer := range f.Chain {
		e.Sym(6, peer)
	}
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
		case 6:
			f.Chain = append(f.Chain, d.Sym())
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

func decodeReplicateResult(payload []byte) (ReplicateResult, error) {
	d, err := codec.NewDecoder(payload, codec.MsgReplicateResult)
	if err != nil {
		return ReplicateResult{}, err
	}
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

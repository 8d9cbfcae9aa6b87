package codec

import "strings"

// An Arena cuts short strings from shared chunks: a strings.Builder
// grown to arenaChunk and never past it, so its buffer never moves and
// every string cut from it — a slice of String() — stays valid as the
// chunk fills. A full chunk is left to the strings cut from it and a
// fresh one started: a caller making many short strings pays one
// allocation per chunk rather than one per string. A chunk lives as long
// as any string cut from it, so cut only strings that live about as long
// as their neighbours: ids and done paths an index holds, or the symbols
// of the payloads one Encoder writes. The zero value is ready; not safe
// for concurrent use.
type Arena struct{ b strings.Builder }

const arenaChunk = 4 << 10

// Cut returns b as a string, copied into the current chunk. A string
// longer than an eighth of a chunk gets an allocation of its own.
func (a *Arena) Cut(b []byte) string {
	if len(b) > arenaChunk/8 {
		return string(b)
	}
	if a.b.Cap()-a.b.Len() < len(b) {
		a.b = strings.Builder{}
		a.b.Grow(arenaChunk)
	}
	at := a.b.Len()
	a.b.Write(b)
	return a.b.String()[at:]
}

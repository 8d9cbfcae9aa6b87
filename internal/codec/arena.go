package codec

import "strings"

// An Arena cuts short strings from shared chunks: a strings.Builder
// grown to the chunk's size and never past it, so its buffer never moves
// and every string cut from it — a slice of String() — stays valid as the
// chunk fills. A full chunk is left to the strings cut from it and a
// fresh one started: a caller making many short strings pays one
// allocation per chunk rather than one per string. A chunk lives as long
// as any string cut from it, so cut only strings that live about as long
// as their neighbours: ids and done paths an index holds, the symbols of
// the payloads one Encoder writes, or the parameters one execution binds.
// Chunks are 4 KB unless set otherwise (Chunks); an arena that may cut
// only a few strings starts smaller (Start), so what it keeps stays in
// proportion to what was cut. The zero value is ready; not safe for
// concurrent use.
type Arena struct {
	b    strings.Builder
	next int // the size of the next chunk; 0 is the usual size
	size int // the usual size; 0 is arenaChunk
}

const arenaChunk = 4 << 10

// Chunks makes the arena's usual chunk n bytes: an arena whose strings
// run to a kilobyte or two takes larger ones, so that they too are cut
// from chunks.
func (a *Arena) Chunks(n int) { a.size = n }

// usual returns the arena's usual chunk size.
func (a *Arena) usual() int {
	if a.size > 0 {
		return a.size
	}
	return arenaChunk
}

// Start makes the arena's next chunk n bytes and each one after it twice
// the one before, up to the usual size. Nothing is allocated before a
// Cut needs room.
func (a *Arena) Start(n int) { a.next = min(n, a.usual()) }

// Cut returns b as a string, copied into the current chunk. A string
// longer than an eighth of the usual chunk gets an allocation of its own.
func (a *Arena) Cut(b []byte) string {
	usual := a.usual()
	if len(b) > usual/8 {
		return string(b)
	}
	if a.b.Cap()-a.b.Len() < len(b) {
		size := a.next
		if size <= 0 {
			size = usual
		}
		size = max(size, len(b))
		a.next = min(2*size, usual)
		a.b = strings.Builder{}
		a.b.Grow(size)
	}
	at := a.b.Len()
	a.b.Write(b)
	return a.b.String()[at:]
}

package workloads

// unreadPayload backs the message buffers of collectives whose contents
// no rank ever reads — HPL's panel broadcast, Amber's parameter and
// restart broadcasts: the models need the byte counts, not the bytes.
// Every rank of every job passes a slice of this one array, and since
// mpisim's Bcast never copies a buffer onto itself, nothing writes it;
// the race-enabled tests over concurrent jobs check exactly that.
var unreadPayload [4<<20 + 1]byte

// unread returns an n-byte buffer for a payload nobody reads: a slice of
// the shared unreadPayload when n fits, a fresh buffer otherwise.
func unread(n int) []byte {
	if n <= len(unreadPayload) {
		return unreadPayload[:n:n]
	}
	return make([]byte, n)
}

package cluster

import "math/bits"

// loadIndex answers the one question least-outstanding routing and the
// hedge pick ask — which routable member has the fewest outstanding
// requests, ties to the lowest ID, optionally leaving one member out —
// without visiting the fleet. Members are filed by their outstanding count:
// bucket c is a bitset of the routable member IDs that have c requests
// outstanding, so the answer is the lowest set bit of the lowest occupied
// bucket.
//
// Invariants, which the fleet loop keeps and auditRun checks at the end of
// a run:
//
//   - at[id] == c >= 0 exactly when id's bit is set in bucket c, and then in
//     no other bucket; at[id] == -1, or id >= len(at), means id is not
//     routable and is filed nowhere.
//   - A routable member is filed under inst.Outstanding(). The index cannot
//     see an instance's counter move, so the loop re-files a member after
//     every call that can move it while the member is routable: in
//     csim.dispatch (which every Admit, PrefillDone and StepDone is followed
//     by, and which can itself shed expired work), after Cancel in
//     resolveHedge, and after FailReplica in onFault. A crash or any other
//     lifecycle transition goes through setState, which rebuilds the index
//     together with the routable list.
//   - Bit c of occupied is set exactly when bucket c holds a member, and no
//     bucket below low is occupied. low only moves up inside least, past
//     buckets it has just seen empty, and file pulls it back down.
//
// The zero value is an empty index: nothing is routable.
type loadIndex struct {
	words    int      // bitset words per bucket: one bit per member ID
	sets     []uint64 // bucket c is sets[c*words : (c+1)*words]
	occupied []uint64 // one bit per bucket
	at       []int32
	low      int
}

// reset unfiles every member and makes room for IDs below ids; the caller
// then inserts the routable ones.
func (x *loadIndex) reset(ids int) {
	for id, c := range x.at {
		if c >= 0 {
			x.remove(id)
		}
	}
	for len(x.at) < ids {
		x.at = append(x.at, -1)
	}
	if w := (ids + 63) / 64; w > x.words {
		// Every bucket is empty here, so a wider stride needs no copying;
		// buckets are reallocated as members are filed.
		x.words, x.sets, x.occupied = w, nil, nil
	}
	x.low = 0
}

// file moves a routable member to bucket c, its new outstanding count. An
// ID that is not routable — a draining member finishing its work, or one
// the index has never seen — is left unfiled.
func (x *loadIndex) file(id, c int) {
	if id >= len(x.at) || x.at[id] < 0 || int(x.at[id]) == c {
		return
	}
	x.remove(id)
	x.insert(id, c)
}

// filed reports the bucket id is filed in, -1 when it is not routable.
func (x *loadIndex) filed(id int) int {
	if id >= len(x.at) {
		return -1
	}
	return int(x.at[id])
}

// remove takes a filed member out of its bucket.
func (x *loadIndex) remove(id int) {
	c := int(x.at[id])
	x.at[id] = -1
	set := x.sets[c*x.words : (c+1)*x.words]
	set[id>>6] &^= 1 << (id & 63)
	for _, w := range set {
		if w != 0 {
			return
		}
	}
	x.occupied[c>>6] &^= 1 << (c & 63)
}

// insert files an unfiled member, whose ID the last reset made room for,
// in bucket c, growing the bucket array to reach it.
func (x *loadIndex) insert(id, c int) {
	if need := (c + 1) * x.words; need > len(x.sets) {
		buckets := max(c+1, 2*len(x.sets)/x.words, 64)
		x.sets = append(x.sets, make([]uint64, buckets*x.words-len(x.sets))...)
		x.occupied = append(x.occupied, make([]uint64, (buckets+63)/64-len(x.occupied))...)
	}
	x.at[id] = int32(c)
	x.sets[c*x.words+id>>6] |= 1 << (id & 63)
	x.occupied[c>>6] |= 1 << (c & 63)
	if c < x.low {
		x.low = c
	}
}

// next returns the lowest occupied bucket at or above c, -1 when there is
// none.
func (x *loadIndex) next(c int) int {
	w := c >> 6
	if w >= len(x.occupied) {
		return -1
	}
	occ := x.occupied[w] &^ (1<<(c&63) - 1)
	for occ == 0 {
		if w++; w == len(x.occupied) {
			return -1
		}
		occ = x.occupied[w]
	}
	return w<<6 + bits.TrailingZeros64(occ)
}

// least returns the routable member with the fewest outstanding requests,
// ties to the lowest ID, leaving out member skip (-1 leaves out nobody; an
// ID that is not routable leaves out nobody either). It returns -1 when no
// other member is routable.
func (x *loadIndex) least(skip int) int {
	c := x.next(x.low)
	if c < 0 {
		return -1
	}
	x.low = c
	// Only a bucket that holds skip alone sends the loop round again.
	for ; c >= 0; c = x.next(c + 1) {
		for w, set := range x.sets[c*x.words : (c+1)*x.words] {
			if w == skip>>6 {
				set &^= 1 << (skip & 63)
			}
			if set != 0 {
				return w<<6 + bits.TrailingZeros64(set)
			}
		}
	}
	return -1
}

package bsp

// PushBlock and ClaimBlocks open a push round's scheduling — how many
// frontier nodes a claim takes, and the pass that hands the claims out — to
// the external tests, which have no per-arc callback to observe it from.
func (e *Engine) PushBlock() int { return e.pushBlock() }

func (e *Engine) ClaimBlocks(n, block int, scan func(w, lo, hi int)) {
	e.claimBlocks(n, block, scan)
}

// SeqThreshold is the smallest phase the pools fan out.
const SeqThreshold = seqThreshold

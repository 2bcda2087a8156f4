// Package netmodel models the interconnect: per-pair FIFO links with
// propagation latency, optional jitter, bandwidth serialization, and
// partition/drop injection.
//
// The model is runtime-agnostic: given "a frame of s bytes leaves a for b
// now", a Link answers "when does it arrive, if at all", tracking its own
// queueing so back-to-back large frames serialize realistically. A link is
// its sender's state: the runtime keeps one per destination beside each
// sender, and its jitter and drop draws are a function of the run seed, the
// two endpoints and how many draws the link took before, so they do not
// depend on how the runtime partitions the processes.
package netmodel

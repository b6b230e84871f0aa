// Package baselines groups the TM systems FlexTM is compared against: the
// paper's coarse-grain locks (cgl), RSTM-style object STM (rstm), TL2-style
// word STM (tl2) and the RTM-F hardware-accelerated STM (rtmf), plus the
// extension baselines LogTM-SE-style eager HTM (logtm) and Bulk-style
// token-serialized lazy HTM (bulk). All six run over the same simulated
// memory system as FlexTM, paying their metadata costs in simulated
// traffic, and share one transaction driver (driver) for the retry loop,
// nesting, abort recovery, statistics and thread plumbing. This parent
// package holds cross-system conformance tests.
package baselines

package uarch

// FateGroups exposes the fate group of each body µop of prog to the external
// template tests.
func FateGroups(prog *Program) []int32 {
	return buildSkeleton(prog, 0, 0, 0).group
}

package uarch

// FateGroups exposes the fate group of each body µop of prog to the external
// template tests.
func FateGroups(prog *Program) []int32 {
	return buildSkeleton(prog, 0, 0, 0).group
}

// bindRing binds prog to s with a register ring of slots slots in place of
// the one derived from the ROB. Later runs of prog on s keep that ring, as
// bind's same-program path does not resize it.
func bindRing(s *Sim, prog *Program, slots int) error {
	if err := s.bind(prog); err != nil {
		return err
	}
	s.sizeRing(slots)
	return nil
}

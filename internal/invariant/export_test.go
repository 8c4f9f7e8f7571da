package invariant

// SetTrimFloorShadow overwrites the checker's record of the last trim floor
// it audited, so a test can stage a floor that moved backwards — a shape the
// heap's own monotone floor never produces.
func (c *Checker) SetTrimFloorShadow(f int64) { c.trimFloor = f }

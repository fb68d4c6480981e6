package dataframe

// JoinType selects the join semantics, mirroring the paper's jtype values.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
)

// String returns the join type name.
func (jt JoinType) String() string {
	switch jt {
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "left_outer"
	case RightOuterJoin:
		return "right_outer"
	case FullOuterJoin:
		return "full_outer"
	}
	return "unknown"
}

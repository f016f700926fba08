package source

import (
	"fmt"
	"strings"
	"testing"
)

// describeNest renders a nest as its loop variables, the source lines
// of its body statements, and whether the body was straight as written:
// "i/j [5 6] straight".
func describeNest(n Nest) string {
	vars := strings.Join(n.Vars(), "/")
	if vars == "" {
		vars = "-"
	}
	lines := make([]string, len(n.Body))
	for i, s := range n.Body {
		lines[i] = fmt.Sprint(s.StmtPos().Line)
	}
	desc := fmt.Sprintf("%s [%s]", vars, strings.Join(lines, " "))
	if n.Straight {
		desc += " straight"
	}
	return desc
}

func TestNests(t *testing.T) {
	for _, tc := range []struct {
		name      string
		src       string
		nests     []string
		innermost string // "" when Innermost finds none
	}{{
		name: "IF-wrapped loop",
		src: `program p
  integer i, n
  real a(10)
  if (n .gt. 0) then
    do i = 1, n
      a(i) = 1.0
    end do
  end if
end`,
		nests:     []string{"i [6] straight"},
		innermost: "i [6] straight",
	}, {
		name: "IF in a loop body is flattened for explain, skipped by the block analysis",
		src: `program p
  integer i, n
  real a(10), s
  do i = 1, n
    s = s + a(i)
    if (i .gt. 2) then
      a(i) = s
    else
      a(i) = 0.0
    end if
  end do
end`,
		nests: []string{"i [5 7 9]"},
	}, {
		name: "empty loop bodies yield no nest",
		src: `program p
  integer i, j, n
  real s
  s = 1.0
  do i = 1, n
  end do
  do j = 1, n
    if (j .gt. 2) then
    end if
  end do
end`,
	}, {
		name: "a loop holding a RETURN is not innermost",
		src: `subroutine p(n)
  integer i, n
  real s
  do i = 1, n
    s = s + 1.0
    return
  end do
end`,
	}, {
		name: "depth ties go to the first deepest nest",
		src: `program p
  integer i, j, k, n
  real a(10), s
  do k = 1, n
    s = s + 1.0
  end do
  do i = 1, n
    do j = 1, n
      a(j) = s
    end do
  end do
  do i = 1, n
    do j = 1, n
      s = s + a(j)
    end do
  end do
end`,
		nests:     []string{"k [5] straight", "i/j [9] straight", "i/j [14] straight"},
		innermost: "i/j [9] straight",
	}, {
		name: "a deeper flattened nest does not hide a shallower straight one",
		src: `program p
  integer i, j, n
  real a(10), s
  do i = 1, n
    s = s + a(i)
    call f(s)
  end do
  do i = 1, n
    do j = 1, n
      if (j .gt. i) then
        s = s + 1.0
      end if
    end do
  end do
end`,
		nests:     []string{"i [5 6] straight", "i/j [11]"},
		innermost: "i [5 6] straight",
	}, {
		name: "loop-free program is one depth-0 nest",
		src: `program p
  real s, t
  s = 1.0
  t = s * 2.0
  continue
end`,
		nests:     []string{"- [3 4 5] straight"},
		innermost: "- [3 4 5] straight",
	}, {
		name: "loop-free program with an IF is flattened",
		src: `program p
  real s
  s = 1.0
  if (s .gt. 0.0) then
    s = 2.0
  end if
end`,
		nests: []string{"- [3 5]"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, n := range Nests(p.Body) {
				got = append(got, describeNest(n))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.nests) {
				t.Errorf("Nests = %q, want %q", got, tc.nests)
			}
			inner := ""
			if n, ok := Innermost(p.Body); ok {
				inner = describeNest(n)
			}
			if inner != tc.innermost {
				t.Errorf("Innermost = %q, want %q", inner, tc.innermost)
			}
		})
	}
}

func TestRunEnd(t *testing.T) {
	p, err := Parse(`program p
  integer i, n
  real s
  s = 1.0
  call f(s)
  continue
  do i = 1, n
    s = s + 1.0
  end do
  call g(s)
  s = 2.0
end`)
	if err != nil {
		t.Fatal(err)
	}
	isG := func(s Stmt) bool {
		c, ok := s.(*CallStmt)
		return ok && c.Name == "g"
	}
	for _, tc := range []struct {
		start int
		cut   func(Stmt) bool
		want  int
	}{
		{0, nil, 3},
		{1, nil, 3},
		{3, nil, 3}, // the loop starts no run
		{4, nil, 6},
		{4, isG, 4}, // cut stops a run at its first statement too
		{5, isG, 6},
		{6, nil, 6},
	} {
		if got := RunEnd(p.Body, tc.start, tc.cut); got != tc.want {
			t.Errorf("RunEnd(body, %d, cut=%v) = %d, want %d", tc.start, tc.cut != nil, got, tc.want)
		}
	}
}

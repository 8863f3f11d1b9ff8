package chaos

import (
	"fmt"
	"testing"
)

func TestCrashManyInFlight(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for _, adversarial := range []bool{false, true} {
			name := fmt.Sprintf("workers-%d/adversarial-%v", workers, adversarial)
			t.Run(name, func(t *testing.T) {
				if err := CrashManyInFlight(workers, 6, adversarial, int64(workers)*31+1); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// Command app is the golden module's one program: what it reaches is
// live, and nothing else is.
package main

import (
	"fmt"

	"golden.test/user"
)

func main() { fmt.Println(user.Use()) }

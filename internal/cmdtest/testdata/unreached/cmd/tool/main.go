// Command tool is the fixture's program: what it uses is live.
package main

import "fixture"

func main() { println(fixture.Live()) }

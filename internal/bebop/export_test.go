package bebop

// RandomProgram exposes the random program generator to the external
// test package, whose trace golden cases include its failing seeds.
var RandomProgram = randomProgram

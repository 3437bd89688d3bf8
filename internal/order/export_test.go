package order

// AMDReference exposes the reference AMD to the external tests that
// need the grid generator (which itself imports this package).
var AMDReference = amdReference

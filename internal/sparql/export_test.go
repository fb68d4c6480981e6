package sparql

// ReferenceMarshalJSON exposes the reference encoder to the external test
// package, whose byte-identity gate needs the bench and server packages.
var ReferenceMarshalJSON = referenceMarshalJSON

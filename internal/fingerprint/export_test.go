package fingerprint

// VersionLess exposes the matcher's version order to the external
// reference tests.
var VersionLess = versionLess

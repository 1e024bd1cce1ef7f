package dispatch

// The driver tests run in package dispatch_test, since campaign.Driver
// imports this package; they share these fixtures.
var (
	DocForTest         = testDoc
	WholeRenderForTest = wholeRender
)

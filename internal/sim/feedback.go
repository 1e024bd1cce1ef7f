package sim

import "nsmac/internal/model"

// roles is one slot's feedback-delivery table, resolved once per slot.
// Delivery is per station — under sender_cd only transmitters learn of
// collisions, under ack only the winner hears the success — but it depends
// solely on the station's role in the slot, of which there are three:
// listener, non-winning transmitter, winner. Resolving each role once keeps
// the model dispatch O(1) per slot instead of O(active).
type roles struct {
	// listen is what a non-transmitting station hears.
	listen model.Feedback
	// sent is what a transmitting, non-winning station hears.
	sent model.Feedback
	// won is what the successful transmitter hears (equal to sent when the
	// slot has no winner).
	won model.Feedback
	// winner is the successful transmitter's ID, or 0.
	winner int
}

// resolveRoles computes the delivery table for a slot's effective outcome
// under the given channel model.
func resolveRoles(m model.ChannelModel, truth model.Feedback, winner int) roles {
	r := roles{
		listen: m.Deliver(truth, false, false),
		sent:   m.Deliver(truth, true, false),
		winner: winner,
	}
	r.won = r.sent
	if winner != 0 {
		r.won = m.Deliver(truth, true, true)
	}
	return r
}

// forStation returns the feedback one station hears given whether it
// transmitted in the slot, plus the success ID the station learns (the
// winner's ID when the delivered feedback is Success, 0 otherwise — a
// station never learns the winner of a success it did not hear).
func (r roles) forStation(transmitted bool, id int) (model.Feedback, int) {
	fb := r.listen
	if transmitted {
		fb = r.sent
		if id == r.winner {
			fb = r.won
		}
	}
	if fb == model.Success {
		return fb, r.winner
	}
	return fb, 0
}

package wire

import "lasthop/internal/msg"

// PushNotification sends one notification as a push frame on conn. The
// trace context is lifted into the frame only when withTrace says the peer
// advertised CapTrace. It is the building block the host uses to implement
// core.Forwarder per device session.
func PushNotification(conn *Conn, n *msg.Notification, withTrace bool) error {
	f := getPushFrame()
	f.Type = TypePush
	f.Notification = n
	if withTrace {
		f.Trace = n.Trace
	}
	err := conn.Send(f)
	putPushFrame(f)
	return err
}

// PushBatch sends a burst of notifications, chunked so every frame stays
// safely below the 1 MiB frame bound. Peers that did not advertise
// CapPushBatch (batching false) get the frames one by one.
func PushBatch(conn *Conn, batch []*msg.Notification, batching, withTrace bool) error {
	if !batching {
		for _, n := range batch {
			if err := PushNotification(conn, n, withTrace); err != nil {
				return err
			}
		}
		return nil
	}
	const budget = maxFrameBytes - 8*1024
	start, size := 0, 0
	for i, n := range batch {
		est := encodedSizeHint(n)
		if i > start && size+est > budget {
			if err := sendBatch(conn, batch[start:i], withTrace); err != nil {
				return err
			}
			start, size = i, 0
		}
		size += est
	}
	return sendBatch(conn, batch[start:], withTrace)
}

func sendBatch(dev *Conn, batch []*msg.Notification, withTrace bool) error {
	if len(batch) == 0 {
		return nil
	}
	if dev.m != nil {
		dev.m.BatchSize.Observe(float64(len(batch)))
	}
	if len(batch) == 1 {
		return PushNotification(dev, batch[0], withTrace)
	}
	f := getPushFrame()
	f.Type = TypePushBatch
	f.Batch = batch
	if withTrace {
		var traces []*msg.TraceContext
		for i, n := range batch {
			if n.Trace == nil {
				continue
			}
			if traces == nil {
				traces = make([]*msg.TraceContext, len(batch))
			}
			traces[i] = n.Trace
		}
		f.Traces = traces
	}
	err := dev.Send(f)
	putPushFrame(f)
	return err
}
